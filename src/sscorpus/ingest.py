"""Line-aligned file ingestion, the external-translator bridge, and corpus files.

All text is decoded as strict UTF-8 and normalized to Unicode NFC on read,
so downstream equality checks and tokenization are stable. Readers stream;
nothing here holds a whole corpus in memory except the small evaluation
datasets.
"""

from __future__ import annotations

import json
import queue
import shlex
import subprocess
import threading
import time
import unicodedata
from dataclasses import asdict, dataclass
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, Optional

from .pipeline import (
    DropTally,
    LabeledPair,
    SelectorConfig,
    SimplificationCorpus,
    compute_corpus_stats,
)
from .textprep import get_profile


_TSV_HEADER = "complex\tsimple\tbleu\tfres_complex\tfres_simple\tfres_gap"


@dataclass(frozen=True)
class TranslationSource:
    """A line-protocol translator command.

    :func:`translate` feeds it ``batch_size`` sentences per flush on stdin
    and expects one translation per line on stdout, in order.
    """

    command: str
    batch_size: int = 64
    timeout: float = 300.0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


def count_lines(path: Path) -> int:
    """Number of text lines; a final line without a newline still counts."""
    count = 0
    last_chunk = b""
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            count += chunk.count(b"\n")
            last_chunk = chunk
    if last_chunk and not last_chunk.endswith(b"\n"):
        count += 1
    return count


def iter_lines(path: Path) -> Iterator[str]:
    """Stream NFC-normalized lines without their terminators."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ValueError(f"{path}: invalid UTF-8 on line {lineno}: {exc}") from None
            yield unicodedata.normalize("NFC", line.rstrip("\n").rstrip("\r"))


def open_aligned(first: Path, second: Path) -> tuple[Iterator[str], Iterator[str]]:
    """Stream two line-aligned files; their line counts are checked up front."""
    n_first = count_lines(first)
    n_second = count_lines(second)
    if n_first != n_second:
        raise ValueError(
            f"line count mismatch: {n_first} lines in {first} vs {n_second} lines in {second}"
        )
    return iter_lines(first), iter_lines(second)


def translate(lines: Iterable[str], source: TranslationSource) -> Iterator[str]:
    """Run the translator over ``lines``; one translation per input line, in order."""
    timeout = source.timeout
    args = shlex.split(source.command)
    proc = subprocess.Popen(args, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    eof = object()
    out_queue: queue.Queue = queue.Queue()
    in_queue: queue.Queue = queue.Queue(maxsize=2)  # one batch of read-ahead

    # Each pipe is closed by the thread that uses it: closing it from another
    # thread would block on a pending read or break a pending write.
    def read_stdout():
        with proc.stdout:
            for raw in proc.stdout:
                out_queue.put(raw)
        out_queue.put(eof)

    def write_stdin():
        try:
            while (batch := in_queue.get()) is not None:
                for line in batch:
                    proc.stdin.write((line + "\n").encode("utf-8"))
                proc.stdin.flush()
        except OSError:
            pass  # child died; the reader side reports the failure
        finally:
            try:
                proc.stdin.close()
            except OSError:
                pass  # unflushed lines to a dead child

    def wait_exit(when: str) -> None:
        # The translator closed its stdout; it should exit right after.
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise RuntimeError(
                f"translator closed its output {when} but did not exit within {timeout:g}s"
            ) from None

    threading.Thread(target=read_stdout, daemon=True).start()
    threading.Thread(target=write_stdin, daemon=True).start()

    def drain(batch: list[str], batch_index: int, start_line: int) -> list[str]:
        deadline = time.monotonic() + timeout
        results = []
        for _ in batch:
            remaining = deadline - time.monotonic()
            try:
                raw = out_queue.get(timeout=max(remaining, 0.001))
            except queue.Empty:
                proc.kill()
                raise RuntimeError(
                    f"translator timed out after {timeout:g}s at batch {batch_index} "
                    f"(lines {start_line}-{start_line + len(batch) - 1})"
                ) from None
            if raw is eof:
                wait_exit(f"at batch {batch_index}")
                if proc.returncode:
                    raise RuntimeError(
                        f"translator command failed with exit code {proc.returncode} "
                        f"at batch {batch_index}"
                    )
                raise RuntimeError(
                    f"translator produced {len(results)} lines for batch {batch_index} "
                    f"(expected {len(batch)}, lines {start_line}-{start_line + len(batch) - 1})"
                )
            results.append(
                unicodedata.normalize("NFC", raw.decode("utf-8").rstrip("\n").rstrip("\r"))
            )
        return results

    try:
        line_iter = iter(lines)
        pending: Optional[tuple[list[str], int, int]] = None
        batch_index = 0
        line_offset = 1
        while True:
            batch = list(islice(line_iter, source.batch_size))
            if batch:
                in_queue.put(batch)
            else:
                in_queue.put(None)
            if pending is not None:
                yield from drain(*pending)
            if not batch:
                break
            pending = (batch, batch_index, line_offset)
            batch_index += 1
            line_offset += len(batch)

        # All input consumed; any further output means the command is misbehaving.
        try:
            leftover = out_queue.get(timeout=timeout)
        except queue.Empty:
            raise RuntimeError(
                f"translator did not exit within {timeout:g}s after the last batch"
            ) from None
        if leftover is not eof:
            proc.kill()
            raise RuntimeError("translator produced more output lines than input lines")
        wait_exit("after the last batch")
        if proc.returncode:
            raise RuntimeError(f"translator command failed with exit code {proc.returncode}")
    finally:
        try:
            in_queue.put_nowait(None)  # unblock the writer thread on error paths
        except queue.Full:
            pass
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)


def _format_score(value: Optional[float]) -> str:
    return "" if value is None else f"{value:.6f}"


def _parse_score(text: str) -> Optional[float]:
    return None if text == "" else float(text)


def write_corpus(
    corpus: SimplificationCorpus,
    out_prefix: Path | str,
    format: str = "plain",
    run_info: Optional[dict] = None,
) -> list[Path]:
    """Write corpus files plus ``<prefix>.meta.json``; returns the paths written.

    plain: ``<prefix>.complex`` and ``<prefix>.simple``, line-aligned, LF.
    tsv:   one file with per-pair scores for inspection.

    A sentence the reader could not give back is rejected before anything is
    written: a line feed or a trailing carriage return in either format, and
    a tab in TSV. The error names the pair index.
    """
    tsv = format == "tsv"
    for pair in corpus.pairs:
        for text in (pair.complex, pair.simple):
            if "\n" in text or text.endswith("\r") or (tsv and "\t" in text):
                raise ValueError(
                    f"pair {pair.index}: sentence {text!r} has a tab or line break "
                    f"that the {format} format cannot hold"
                )
    prefix = Path(out_prefix)
    if prefix.parent and not prefix.parent.exists():
        prefix.parent.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    if format == "plain":
        complex_path = Path(f"{prefix}.complex")
        simple_path = Path(f"{prefix}.simple")
        with open(complex_path, "w", encoding="utf-8", newline="\n") as complex_fh, open(
            simple_path, "w", encoding="utf-8", newline="\n"
        ) as simple_fh:
            for pair in corpus.pairs:
                complex_fh.write(pair.complex + "\n")
                simple_fh.write(pair.simple + "\n")
        written += [complex_path, simple_path]
    elif format == "tsv":
        tsv_path = Path(f"{prefix}.tsv")
        with open(tsv_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(_TSV_HEADER + "\n")
            for pair in corpus.pairs:
                fh.write(
                    "\t".join(
                        (
                            pair.complex,
                            pair.simple,
                            _format_score(pair.bleu),
                            _format_score(pair.fres_complex),
                            _format_score(pair.fres_simple),
                            _format_score(pair.fres_gap),
                        )
                    )
                    + "\n"
                )
        written.append(tsv_path)
    else:
        raise ValueError(f"unknown corpus format {format!r}")

    meta = {
        "format": format,
        "lang": corpus.lang,
        "config": asdict(corpus.config_snapshot),
        "stats": asdict(corpus.stats),
        "drop_tally": asdict(corpus.drop_tally) if corpus.drop_tally else None,
    }
    if run_info:
        meta["run"] = run_info
    meta_path = Path(f"{prefix}.meta.json")
    with open(meta_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(meta, fh, indent=2, ensure_ascii=False)
        fh.write("\n")
    written.append(meta_path)
    return written


def read_corpus(prefix: Path | str, format: str = "plain") -> SimplificationCorpus:
    """Read a corpus written by :func:`write_corpus`."""
    prefix = Path(prefix)
    meta_path = Path(f"{prefix}.meta.json")
    meta = {}
    if meta_path.exists():
        meta = json.loads(meta_path.read_text(encoding="utf-8"))

    pairs: list[LabeledPair] = []
    if format == "plain":
        complex_lines, simple_lines = open_aligned(
            Path(f"{prefix}.complex"), Path(f"{prefix}.simple")
        )
        for index, (complex_line, simple_line) in enumerate(zip(complex_lines, simple_lines)):
            pairs.append(
                LabeledPair(
                    complex=complex_line,
                    simple=simple_line,
                    fres_gap=0.0,
                    provenance="unlabeled",
                    index=index,
                )
            )
    elif format == "tsv":
        tsv_path = Path(f"{prefix}.tsv")
        lines = iter_lines(tsv_path)
        header = next(lines, None)
        if header != _TSV_HEADER:
            raise ValueError(f"{tsv_path}: header is {header!r}, expected {_TSV_HEADER!r}")
        for index, line in enumerate(lines):
            fields = line.split("\t")
            if len(fields) != 6:
                raise ValueError(f"{tsv_path}: malformed row {index + 2}")
            pairs.append(
                LabeledPair(
                    complex=fields[0],
                    simple=fields[1],
                    fres_gap=_parse_score(fields[5]) or 0.0,
                    provenance="unlabeled",
                    index=index,
                    bleu=_parse_score(fields[2]),
                    fres_complex=_parse_score(fields[3]),
                    fres_simple=_parse_score(fields[4]),
                )
            )
    else:
        raise ValueError(f"unknown corpus format {format!r}")

    lang = meta.get("lang", "en")
    config = SelectorConfig(**meta["config"]) if "config" in meta else SelectorConfig()
    tally = DropTally(**meta["drop_tally"]) if meta.get("drop_tally") else None
    return SimplificationCorpus(
        pairs=pairs,
        lang=lang,
        config_snapshot=config,
        stats=compute_corpus_stats(pairs, get_profile(lang)),
        drop_tally=tally,
    )


def read_eval_dataset(directory: Path | str) -> tuple[list[str], list[list[str]]]:
    """Read a turk-style evaluation layout: ``<name>.src`` plus ``<name>.ref.<i>``.

    Returns sources and, per source, the ordered list of references.
    """
    directory = Path(directory)
    src_files = sorted(directory.glob("*.src"))
    if len(src_files) != 1:
        raise ValueError(
            f"{directory}: expected exactly one .src file, found "
            f"{[f.name for f in src_files] or 'none'}"
        )
    src_path = src_files[0]
    name = src_path.name[: -len(".src")]

    ref_paths = {}
    for path in directory.glob(f"{name}.ref.*"):
        suffix = path.name.rsplit(".", 1)[-1]
        if suffix.isdigit():
            ref_paths[int(suffix)] = path
    if not ref_paths:
        raise ValueError(f"{directory}: no {name}.ref.<i> files found")
    n_refs = max(ref_paths) + 1
    for i in range(n_refs):
        if i not in ref_paths:
            raise ValueError(f"{directory}: missing reference file {name}.ref.{i}")

    sources = list(iter_lines(src_path))
    columns = []
    for i in range(n_refs):
        column = list(iter_lines(ref_paths[i]))
        if len(column) != len(sources):
            raise ValueError(
                f"{ref_paths[i]}: {len(column)} lines, expected {len(sources)} "
                f"to match {src_path.name}"
            )
        columns.append(column)
    references = [[column[i] for column in columns] for i in range(len(sources))]
    return sources, references
