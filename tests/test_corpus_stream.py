"""Streamed corpus files against the list-based writer and reader they replaced.

The CLI hands the kept pairs to an ``ingest.CorpusWriter`` as they are decided;
``pipeline_oracle`` keeps the writer, reader and subset that held the whole
corpus in memory. Every file, ``meta.json`` included, the ``stats`` report
and ``subset``'s output must match them byte for byte. The memory gate
checks that the main process's peak resident memory in a streamed CLI run,
with one worker or two, does not grow with its input.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

import pipeline_oracle as oracle
from synth import make_aligned_streams, write_aligned_files

import sscorpus
from sscorpus import cli
from sscorpus.pipeline import SelectorConfig, ablate, build_corpus
from sscorpus.textprep import get_profile

EN = get_profile("en")
N_PAIRS, SEED = 300, 131
TARGETS, TRANSLATIONS = make_aligned_streams(N_PAIRS, SEED)


def _run(capsys, argv: list[str]) -> str:
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return captured.out


def _run_info(argv: list[str], extra: dict | None = None) -> dict:
    return cli._run_info(cli.build_parser().parse_args(argv), extra)


def _files(prefix: Path) -> dict[str, bytes]:
    """Every file written at ``prefix``, keyed by what follows the prefix."""
    start = len(prefix.name)
    return {
        path.name[start:]: path.read_bytes()
        for path in prefix.parent.iterdir()
        if path.name.startswith(prefix.name + ".")
    }


@pytest.fixture
def inputs(tmp_path):
    source = tmp_path / "in"
    source.mkdir()
    return write_aligned_files(source, N_PAIRS, SEED)


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("dedup", [False, True])
@pytest.mark.parametrize("format", ["plain", "tsv"])
def test_build_matches_list_writer(tmp_path, capsys, inputs, format, dedup, workers):
    target, translations = inputs
    out = tmp_path / "stream" / "c"
    argv = ["build", "--target", str(target), "--translations", str(translations),
            "--out", str(out), "--format", format, "--workers", workers]
    argv += ["--dedup"] if dedup else []
    stdout = _run(capsys, argv)

    corpus = build_corpus(TARGETS, TRANSLATIONS, SelectorConfig(dedup=dedup), EN)
    expected = tmp_path / "oracle" / "c"
    oracle.write_corpus(corpus, expected, format, _run_info(argv))
    assert _files(out) == _files(expected)
    assert set(_files(out)) == ({".tsv"} if format == "tsv" else {".complex", ".simple"}) | {
        ".meta.json"
    }
    assert corpus.pairs and bool(corpus.drop_tally.dropped_duplicate) == dedup
    assert f"kept                 {len(corpus.pairs)}\n" in stdout


@pytest.mark.parametrize("format", ["plain", "tsv"])
def test_ablate_matches_list_writer(tmp_path, capsys, inputs, format):
    target, translations = inputs
    out = tmp_path / "stream" / "ab"
    argv = ["ablate", "--target", str(target), "--translations", str(translations),
            "--out", str(out), "--format", format]
    kept = json.loads(_run(capsys, argv))["kept"]

    variants = ablate(TARGETS, TRANSLATIONS, EN)
    assert kept == {name: len(corpus.pairs) for name, corpus in variants.items()}
    for name, corpus in variants.items():
        expected = tmp_path / "oracle" / f"ab.{name}"
        oracle.write_corpus(corpus, expected, format, _run_info(argv, {"variant": name}))
        assert _files(out.with_name(f"ab.{name}")) == _files(expected), name


@pytest.mark.parametrize("format", ["plain", "tsv"])
def test_stats_and_subset_match_list_reader(tmp_path, capsys, inputs, format):
    target, translations = inputs
    corpus = tmp_path / "c"
    _run(capsys, ["build", "--target", str(target), "--translations", str(translations),
                  "--out", str(corpus), "--format", format, "--lang", "fr"])
    loaded = oracle.read_corpus(corpus, format)
    assert loaded.pairs

    stdout = _run(capsys, ["stats", "--corpus", str(corpus), "--format", format])
    assert stdout == json.dumps(asdict(loaded.stats), indent=2) + "\n"

    for n, seed in ((0, 1), (17, 5), (len(loaded.pairs), 9)):
        out = tmp_path / f"s{n}"
        argv = ["subset", "--corpus", str(corpus), "-n", str(n), "--seed", str(seed),
                "--out", str(out), "--format", format]
        stdout = _run(capsys, argv)
        sampled = oracle.subset(loaded, n, seed)
        expected = tmp_path / "oracle" / f"s{n}"
        oracle.write_corpus(sampled, expected, format, _run_info(argv))
        assert _files(out) == _files(expected), (n, seed)
        assert stdout == f"kept {n} of {len(loaded.pairs)} pairs\n"


def test_own_sink_gets_the_pairs():
    listed = build_corpus(TARGETS, TRANSLATIONS, SelectorConfig(), EN)
    sink: list = []
    streamed = build_corpus(TARGETS, TRANSLATIONS, SelectorConfig(), EN, sink=sink)
    assert sink == listed.pairs and streamed.pairs == []
    assert (streamed.stats, streamed.drop_tally) == (listed.stats, listed.drop_tally)

    sinks = {name: [] for name in ("pseudo", "no_bleu", "no_fres", "full")}
    for name, corpus in ablate(TARGETS, TRANSLATIONS, EN, sinks=sinks).items():
        assert corpus.pairs == [] and len(sinks[name]) == corpus.stats.total_pairs > 0


# A fresh interpreter runs one CLI call, then reports its resident-memory
# high-water mark and whether hashlib (which loads OpenSSL) was imported.
_MEASURE = """
import sys
from sscorpus.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status", encoding="ascii") as fh:
    peak = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(code, peak, "hashlib" in sys.modules)
"""


def _peak_kib(argv: list[str]) -> int:
    env = dict(os.environ)
    src = str(Path(sscorpus.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-c", _MEASURE, *argv],
        env=env, capture_output=True, text=True, timeout=600, check=True,
    )
    code, peak, hashlib_loaded = result.stdout.split()[-3:]
    assert (code, hashlib_loaded) == ("0", "False"), result.stderr
    return int(peak)


# The main process only: worker processes hold a chunk or two each.
RUNS = (("build",), ("ablate",), ("build", "--workers", "2"))


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM (Linux only)")
def test_peak_memory_does_not_grow_with_input(tmp_path):
    peaks = {}
    for size in (10_000, 40_000):
        directory = tmp_path / f"n{size}"
        directory.mkdir()
        target, translations = write_aligned_files(directory, size, seed=109)
        for run in RUNS:
            peaks[run, size] = _peak_kib([
                *run, "--target", str(target), "--translations", str(translations),
                "--out", str(directory / run[0]),
            ])
    for run in RUNS:
        small, large = peaks[run, 10_000], peaks[run, 40_000]
        assert large <= 1.05 * small, f"{run}: {small} KiB at 10k pairs, {large} KiB at 40k"
