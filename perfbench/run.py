#!/usr/bin/env python3
"""Benchmark of the sscorpus command line: three workloads, every output checked.

    python3 perfbench/run.py --workload build --seed 109 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all          # all three, one table

Each pass is a fresh interpreter (``pass_runner.py``) that imports sscorpus
from ``src/`` and calls ``sscorpus.cli.main``, as a user's run does. Inputs
are made from ``--seed`` by ``tests/synth.py`` before any timing and cached
per (seed, size) under ``.perfbench/``. Passes repeat while the next one is
expected to end within ``--seconds``, and each metric is the median over the
passes. Each pass also times a fixed piece of work (``calibrate.py``) right
before and after its CLI calls, and its times are scaled by those readings to
a host of reference speed, because the shared hosts this runs on drift in
speed by tens of percent.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json. ``--trace 1``
alternates traced and untraced passes and reports the per-layer metrics, read
from spans recorded around the package's public callables (``tracer.py``),
plus the traced/untraced CPU time ratio. A pass fails on a non-zero exit, an
exception, or any output that differs from the recorded (or, for a seed not
recorded, the reference) digests and scores. The last stdout line is the
JSON result; machine facts and a readable table come before it.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import multiprocessing
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src" / "sscorpus"
SYNTH = ROOT / "tests" / "synth.py"
EVAL_DIR = ROOT / "data" / "eval"
WORK = ROOT / ".perfbench"
EXPECTED = BENCH / "expected.json"

DEFAULT_SEED = 109  # the seed of acceptance test c7
SIZE = 8000  # input pairs per corpus pass: about two seconds of build at seed speed
EVAL_SETS = ("turkcorpus", "asset")
# Published source-row scores and the tolerances acceptance test c1 allows.
PUBLISHED = {
    "turkcorpus": {"sari": (26.29, 0.5), "bleu": (99.36, 0.5), "fkgl": (10.02, 0.2)},
    "asset": {"sari": (20.73, 0.5), "bleu": (92.81, 0.5)},
}
EXACT = 1e-9
WORKLOADS = ("build", "ablate", "eval")
ABLATION_VARIANTS = ("pseudo", "no_bleu", "no_fres", "full")
PASS_LIMIT_S = 170.0  # a run ends within 180 s even if a pass hangs

# per-layer metric -> (span, field) read from the trace's span rows
SPAN_METRICS = {
    "textprep.metric_tokens.calls": ("textprep.metric_tokens", "calls"),
    "textprep.metric_tokens.s": ("textprep.metric_tokens", "s"),
    "textprep.text_stats.calls": ("textprep.text_stats", "calls"),
    "textprep.text_stats.s": ("textprep.text_stats", "s"),
    "textprep.tokenize_words.calls": ("textprep.tokenize_words", "calls"),
    "textprep.tokenize_words.s": ("textprep.tokenize_words", "s"),
    "metrics.sentence_bleu.calls": ("metrics.sentence_bleu", "calls"),
    "metrics.sentence_bleu.self_s": ("metrics.sentence_bleu", "self_s"),
    "metrics.fres.calls": ("metrics.fres", "calls"),
    "metrics.fres.self_s": ("metrics.fres", "self_s"),
    "metrics.sari.s": ("metrics.sari", "s"),
    "metrics.corpus_bleu.s": ("metrics.corpus_bleu", "s"),
    "metrics.corpus_fkgl.s": ("metrics.corpus_fkgl", "s"),
    "metrics.corpus_fres.s": ("metrics.corpus_fres", "s"),
    "pipeline.score_pair.calls": ("pipeline.score_pair", "calls"),
    "pipeline.score_pair.s": ("pipeline.score_pair", "s"),
    "pipeline.build_corpus.self_s": ("pipeline.build_corpus", "self_s"),
    "pipeline.ablate.self_s": ("pipeline.ablate", "self_s"),
    "pipeline.compute_corpus_stats.calls": ("pipeline.compute_corpus_stats", "calls"),
    "pipeline.compute_corpus_stats.s": ("pipeline.compute_corpus_stats", "s"),
    "ingest.count_lines.s": ("ingest.count_lines", "s"),
    "ingest.read.lines": ("ingest.read", "items"),
    "ingest.read.s": ("ingest.read", "s"),
    "ingest.write.s": ("ingest.write_corpus", "s"),
    "ingest.read_eval.s": ("ingest.read_eval_dataset", "s"),
    "cli.main.self_s": ("cli.main", "self_s"),
}
_FIELDS = {"calls": 2, "s": 3, "self_s": 4, "items": 5}
# per-layer counts: a traced pass of the same input must repeat them exactly
COUNT_METRICS = [name for name, (_, field) in SPAN_METRICS.items() if field in ("calls", "items")]


class BenchError(Exception):
    """The benchmark cannot run here (missing sources or data)."""


class PassFailed(Exception):
    """A pass exited badly or produced output that cannot be checked."""


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def check_checkout() -> None:
    needed = [SRC / "cli.py", SYNTH, ROOT / "BENCHMARK.json"]
    needed += [EVAL_DIR / name for name in EVAL_SETS]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if missing:
        raise BenchError("not an sscorpus checkout, missing: " + ", ".join(missing))


def machine_facts() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src_digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": sha,
        "src_sha256": src_digest.hexdigest(),
        "pool_start_method": multiprocessing.get_start_method(),
        "note": f"every workload runs one scoring worker on this {os.cpu_count()}-processor host",
    }


# --- inputs ---------------------------------------------------------------


def _write_atomic(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def corpus_inputs(seed: int, size: int) -> tuple[Path, Path]:
    """Target and translation files for (seed, size), generated once and cached."""
    directory = WORK / "inputs" / f"s{seed}-n{size}"
    targets, translations = directory / "targets.txt", directory / "translations.txt"
    if targets.exists() and translations.exists():
        return targets, translations
    spec = importlib.util.spec_from_file_location("perfbench_synth", SYNTH)
    synth = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(synth)
    target_lines, translation_lines = synth.make_aligned_streams(size, seed)
    directory.mkdir(parents=True, exist_ok=True)
    _write_atomic(targets, "\n".join(target_lines) + "\n")
    _write_atomic(translations, "\n".join(translation_lines) + "\n")
    return targets, translations


def workload_calls(workload: str, seed: int, out: Path) -> tuple[list[list[str]], int]:
    """CLI argv lists for one pass, and the number of input items it scores."""
    if workload == "eval":
        calls = [["eval", "--dataset", str(EVAL_DIR / name), "--row", "source"] for name in EVAL_SETS]
        return calls, sum(_eval_items(name) for name in EVAL_SETS)
    targets, translations = corpus_inputs(seed, SIZE)
    prefix = str(out / "corpus")
    argv = [workload, "--target", str(targets), "--translations", str(translations),
            "--workers", "1", "--out", prefix]
    return [argv], SIZE


def _eval_items(name: str) -> int:
    (src,) = (EVAL_DIR / name).glob("*.src")
    return len(src.read_bytes().splitlines())


# --- one pass -------------------------------------------------------------


def run_pass(calls: list[list[str]], trace: bool, deadline: float) -> dict:
    """Run one pass in a fresh interpreter; returns its result with ``setup_s`` added."""
    spec = json.dumps({"src": str(SRC), "calls": calls, "trace": trace})
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC.parent), env.get("PYTHONPATH", "")) if p
    )
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "pass_runner.py"), spec],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise PassFailed("pass timed out") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise PassFailed(f"pass exited with {proc.returncode}: {stderr.strip()[-2000:]}")
    result = json.loads(stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - spawned
    result["stderr"] = stderr
    return result


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def corpus_digest(prefix: Path) -> dict:
    meta = json.loads(Path(f"{prefix}.meta.json").read_text(encoding="utf-8"))
    return {
        "complex": _sha256(Path(f"{prefix}.complex")),
        "simple": _sha256(Path(f"{prefix}.simple")),
        "drop_tally": meta["drop_tally"],
    }


def observed(workload: str, result: dict, out: Path) -> dict:
    """What a pass produced, in the form the expectations are recorded in."""
    if any(code != 0 for code in result["codes"]):
        raise PassFailed(f"sscorpus exited with {result['codes']}: {result['stderr'].strip()[-2000:]}")
    if workload == "eval":
        return {name: json.loads(text) for name, text in zip(EVAL_SETS, result["stdouts"])}
    if workload == "ablate":
        return {
            "kept": json.loads(result["stdouts"][0])["kept"],
            "variants": {v: corpus_digest(out / f"corpus.{v}") for v in ABLATION_VARIANTS},
        }
    return corpus_digest(out / "corpus")


def mismatches(workload: str, got: dict, expected: dict, seed: int) -> list[str]:
    """Differences between a pass's outputs and the expectations; empty when correct."""
    errors = []
    if workload == "eval":
        for name in EVAL_SETS:
            report, want = got[name], expected["eval"][name]
            for key, (value, tol) in PUBLISHED[name].items():
                if not abs(report[key] - value) <= tol:
                    errors.append(f"{name} {key} {report[key]} not within {tol} of published {value}")
            for key, value in want.items():
                if not abs(report.get(key, math.inf) - value) <= EXACT:
                    errors.append(f"{name} {key} {report.get(key)} != recorded {value}")
        return errors
    build = expected["build"]
    if workload == "ablate":
        want_ablate = expected["ablate"]
        if got["kept"] != want_ablate["kept"]:
            errors.append(f"ablate kept {got['kept']} != recorded {want_ablate['kept']}")
        for variant in ABLATION_VARIANTS:
            if got["variants"][variant] != want_ablate["variants"][variant]:
                errors.append(f"ablate variant {variant} differs from the recorded output")
        if got["variants"]["full"] != build:
            errors.append("ablate full variant differs from the build output")
        return errors
    if got != build:
        errors.append(f"{workload} output differs from the recorded build output (seed {seed})")
    return errors


# --- expectations ---------------------------------------------------------


def load_expected() -> dict:
    if EXPECTED.exists():
        return json.loads(EXPECTED.read_text(encoding="utf-8"))
    return {"size": SIZE, "corpus": {}, "eval": {}}


def reference(seed: int) -> dict:
    """build and ablate outputs for ``seed``, from untimed one-worker CLI passes."""
    out = WORK / "reference" / f"s{seed}-n{SIZE}"
    ref = {}
    for workload in ("build", "ablate"):
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        calls, _ = workload_calls(workload, seed, out)
        result = run_pass(calls, False, time.monotonic() + PASS_LIMIT_S)
        ref[workload] = observed(workload, result, out)
    shutil.rmtree(out, ignore_errors=True)
    if ref["ablate"]["variants"]["full"] != ref["build"]:
        raise PassFailed(f"seed {seed}: ablate full variant differs from build")
    return ref


def expectations(seed: int, recorded: dict) -> tuple[dict, str]:
    """Expected outputs for ``seed`` and where they come from."""
    expected = {"eval": recorded["eval"]}
    key = f"{seed}/{SIZE}"
    if key in recorded["corpus"]:
        expected.update(recorded["corpus"][key])
        return expected, "recorded"
    cache = WORK / "reference" / f"{seed}-{SIZE}.json"
    if cache.exists():
        expected.update(json.loads(cache.read_text(encoding="utf-8")))
    else:
        ref = reference(seed)
        cache.parent.mkdir(parents=True, exist_ok=True)
        _write_atomic(cache, json.dumps(ref))
        expected.update(ref)
    return expected, "reference (seed not recorded)"


# --- metrics --------------------------------------------------------------


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def host_scale(sample: dict) -> float:
    """Factor that turns a pass's times into times on the reference host."""
    return calibrate.REFERENCE_S / statistics.fmean(sample["calibration_s"])


def end_to_end(samples: list[dict], items: int) -> dict:
    return {
        "items_per_s": _median([items / (s["seconds"] * host_scale(s)) for s in samples]),
        "peak_rss_mib": _median([s["peak_rss_kib"] / 1024.0 for s in samples]),
        "setup_s": _median([s["setup_s"] * host_scale(s) for s in samples]),
    }


def unscaled(samples: list[dict], items: int) -> dict:
    """Medians as measured on this host, and the median calibration reading."""
    return {
        "items_per_s": _median([items / s["seconds"] for s in samples]),
        "setup_s": _median([s["setup_s"] for s in samples]),
        "calibration_s": _median([x for s in samples for x in s["calibration_s"]]),
    }


def span_value(rows: list, span: str, field: str) -> float:
    index = _FIELDS[field]
    return sum(row[index] for row in rows if row[0] == span)


def layer_values(workload: str, result: dict, got: dict) -> dict:
    """Per-layer metrics of one traced pass."""
    rows = result["spans"]
    values = {name: span_value(rows, span, field) for name, (span, field) in SPAN_METRICS.items()}
    for label in ("textprep.syllable_cache", "metrics.fkgl_syllable_cache"):
        hits, misses = result["caches"].get(label, (0, 0))
        values[f"{label}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    tally = None
    if workload == "ablate":
        tally = got["variants"]["full"]["drop_tally"]
    elif workload != "eval":
        tally = got["drop_tally"]
    values["pipeline.kept_ratio"] = tally["n_kept"] / tally["n_input"] if tally else 0.0
    return values


# --- one run --------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 expected: dict | None = None, log=print) -> dict:
    """Passes until ``seconds`` would be exceeded; returns the run's result."""
    started = time.monotonic()
    deadline = started + PASS_LIMIT_S
    source = "given"
    if expected is None:
        try:
            expected, source = expectations(seed, load_expected())
        except Exception as exc:  # a program that cannot produce a reference fails the run
            log(f"FAILED reference passes: {type(exc).__name__}: {exc}")
            return {"workload": workload, "correct": False, "attempted": 1, "failed": 1,
                    "passes": 0, "metrics": {}, "errors": [f"reference: {exc}"],
                    "seconds": time.monotonic() - started}
    out = WORK / "out" / workload
    calls, items = workload_calls(workload, seed, out)
    log(f"workload {workload}: seed {seed}, {items} items per pass, expected outputs {source}")

    attempted = failed = 0
    plain, traced, layer_runs, errors, cycles = [], [], [], [], []
    measure_from = time.monotonic()
    while True:
        now = time.monotonic()
        enough = plain and (not trace or len(traced) >= 2)
        # start another pass only if it is expected to end within the run
        if now - measure_from + _median(cycles) > seconds and (enough or failed):
            break
        if now >= deadline:
            errors.append("run hit its time limit")
            break
        # when tracing, alternate traced and untraced passes, traced first
        with_trace = trace and len(traced) <= len(plain)
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        attempted += 1
        try:
            result = run_pass(calls, with_trace, deadline)
            got = observed(workload, result, out)
            problems = mismatches(workload, got, expected, seed)
            layers = layer_values(workload, result, got) if with_trace else None
        except Exception as exc:  # any harness-side failure is a failed pass, reported
            problems = [f"{type(exc).__name__}: {exc}"]
        cycles.append(time.monotonic() - now)
        if problems:
            failed += 1
            errors.extend(problems)
            log(f"FAILED pass {attempted}: " + "; ".join(problems))
        elif with_trace:
            traced.append(result)
            layer_runs.append(layers)
        else:
            plain.append(result)

    if trace:
        metrics = {}
        if layer_runs:
            for name in layer_runs[0]:
                values = [run[name] for run in layer_runs]
                metrics[name] = _median(values)
        for name in COUNT_METRICS:
            if len({run.get(name) for run in layer_runs}) > 1:
                errors.append(f"count metric {name} differs between traced passes: "
                              f"{[run.get(name) for run in layer_runs]}")
        # CPU time of each traced pass over that of the untraced pass run right
        # after it, both scaled to the reference host: host speed drifts
        ratios = [(t["cpu_seconds"] * host_scale(t)) / (u["cpu_seconds"] * host_scale(u))
                  for t, u in zip(traced, plain)]
        metrics["trace.overhead_ratio"] = _median(ratios)
    else:
        metrics = end_to_end(plain, items)
    if not plain:
        errors.append("no measured pass completed")
    return {
        "workload": workload,
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "passes": len(plain) + len(traced),
        "metrics": metrics,
        "unscaled": unscaled(plain, items),
        "errors": errors,
        "seconds": time.monotonic() - started,
    }


def declared_metrics(spec: dict, trace: bool) -> dict:
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def format_result(result: dict, units: dict) -> dict:
    missing = sorted(set(units) - set(result["metrics"]))
    if missing and result["correct"]:
        raise BenchError(f"metrics not produced: {missing}")
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"].get(name, 0.0), "unit": unit}
                    for name, unit in units.items()},
    }


def print_table(result: dict, units: dict) -> None:
    ratio = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(f"== {result['workload']}: {result['passes']} measured passes, "
          f"{result['attempted']} attempted, failed_ratio {ratio:g} "
          f"({result['seconds']:.1f} s)")
    for name, unit in units.items():
        print(f"  {name:<40} {result['metrics'].get(name, math.nan):>14.6g} {unit}")
    host = result.get("unscaled", {})
    if host:
        print(f"  unscaled on this host: {host['items_per_s']:.6g} 1/s, setup {host['setup_s']:.6g} s; "
              f"calibration {host['calibration_s']:.6g} s (reference {calibrate.REFERENCE_S} s)")
    for error in result["errors"][:20]:
        print(f"  error: {error}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        check_checkout()
        spec = load_spec()
    except (BenchError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    units = declared_metrics(spec, bool(args.trace))
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    print("machine: " + json.dumps(machine_facts()))

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for workload in workloads:
        result = run_workload(workload, args.seed, seconds, bool(args.trace))
        print_table(result, units)
        results.append(result)
    try:
        formatted = [format_result(r, units) for r in results]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if len(formatted) == 1:
        final = formatted[0]
    else:
        final = {
            "correct": all(f["correct"] for f in formatted),
            "attempted": sum(f["attempted"] for f in formatted),
            "failed": sum(f["failed"] for f in formatted),
            "metrics": {f"{r['workload']}.{name}": value
                        for r, f in zip(results, formatted)
                        for name, value in f["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
