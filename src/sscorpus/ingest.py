"""Line-aligned file ingestion, the external-translator bridge, and corpus files.

All text, file lines and translator output alike, is decoded as strict
UTF-8 and normalized to Unicode NFC on read, so downstream equality checks
and tokenization are stable. Readers and the corpus writer stream, so the
command line's ``build``, ``ablate``, ``stats`` and ``subset`` keep no
whole corpus in memory; only :func:`read_corpus`, which returns one, and
the small evaluation datasets are held whole. Every corpus is committed by
one :func:`writing` block, and a failed run removes only what it created.
"""

from __future__ import annotations

import json
import math
import os
import unicodedata
from contextlib import ExitStack, contextmanager, suppress
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
        import shlex  # the translator's modules load only when one is configured

        if not shlex.split(self.command):
            raise ValueError("translator command is empty")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0.0 < self.timeout < math.inf:
            raise ValueError(f"timeout must be a positive finite number, got {self.timeout}")


def count_lines(path: Path) -> int:
    """Number of text lines; a final line without a newline still counts."""
    count = 0
    last_chunk = b""
    with open(path, "rb") as fh:
        # Small reads: two chunks are alive at once, and with larger ones this
        # count would set the peak memory of a whole streamed build.
        while chunk := fh.read(1 << 16):
            count += chunk.count(b"\n")
            last_chunk = chunk
    if last_chunk and not last_chunk.endswith(b"\n"):
        count += 1
    return count


def _decode(raw: bytes, origin: object, lineno: int) -> str:
    """One line of text as the program sees it: strict UTF-8, no terminator, NFC."""
    try:
        line = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{origin}: invalid UTF-8 on line {lineno}: {exc}") from None
    return unicodedata.normalize("NFC", line.rstrip("\n").rstrip("\r"))


def iter_lines(path: Path) -> Iterator[str]:
    """Stream NFC-normalized lines without their terminators."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            yield _decode(raw, path, lineno)


def open_aligned(first: Path, *others: Path) -> tuple[Iterator[str], ...]:
    """Stream line-aligned files; every line count is checked against the first up front."""
    n_first = count_lines(first)
    for other in others:
        if (n_other := count_lines(other)) != n_first:
            raise ValueError(
                f"line count mismatch: {n_first} lines in {first} vs {n_other} lines in {other}"
            )
    return tuple(map(iter_lines, (first, *others)))


def translate(lines: Iterable[str], source: TranslationSource) -> Iterator[str]:
    """Run the translator over ``lines``; one translation per input line, in order."""
    import queue, shlex, subprocess, threading, time

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
        # An OSError means the child died, which the reader side reports, or
        # that closing left lines unflushed to a dead child.
        with suppress(OSError), proc.stdin:
            while (batch := in_queue.get()) is not None:
                for line in batch:
                    proc.stdin.write((line + "\n").encode("utf-8"))
                proc.stdin.flush()

    def finish(when: str, where: str = "") -> None:
        # The translator closed its stdout; it should exit right after, and cleanly.
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise RuntimeError(
                f"translator closed its output {when} but did not exit within {timeout:g}s"
            ) from None
        if proc.returncode:
            raise RuntimeError(f"translator command failed with exit code {proc.returncode}{where}")

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
                finish(f"at batch {batch_index}", f" at batch {batch_index}")
                raise RuntimeError(
                    f"translator produced {len(results)} lines for batch {batch_index} "
                    f"(expected {len(batch)}, lines {start_line}-{start_line + len(batch) - 1})"
                )
            results.append(_decode(raw, "translator output", start_line + len(results)))
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
        finish("after the last batch")
    finally:
        with suppress(queue.Full):
            in_queue.put_nowait(None)  # unblock the writer thread on error paths
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)


def _format_score(value: Optional[float]) -> str:
    return "" if value is None else f"{value:.6f}"


def _parse_score(text: str) -> Optional[float]:
    return None if text == "" else float(text)


def _pair_paths(prefix: Path | str, format: str) -> list[Path]:
    """The pair files of a corpus at ``prefix``; the one place a format name is checked."""
    if format == "plain":
        return [Path(f"{prefix}.complex"), Path(f"{prefix}.simple")]
    if format == "tsv":
        return [Path(f"{prefix}.tsv")]
    raise ValueError(f"unknown corpus format {format!r}")


class CorpusWriter:
    """Streams one corpus to files at ``<prefix>``, a chunk of pairs at a time.

    plain: ``<prefix>.complex`` and ``<prefix>.simple``, line-aligned, LF.
    tsv:   one file with per-pair scores for inspection.

    Files are written under temporary names in the output directory:
    :meth:`extend`, then ``<prefix>.meta.json`` by :meth:`close`;
    :func:`writing` renames them into place. The ``with`` block removes the
    temporary files this writer created and any directory it made that is
    still empty, so a failed or interrupted run leaves no new file behind
    and an earlier corpus at the same prefix untouched.
    """

    def __init__(self, out_prefix: Path | str, format: str = "plain") -> None:
        prefix = Path(out_prefix)
        self.paths = [*_pair_paths(prefix, format), Path(f"{prefix}.meta.json")]
        self.format = format
        self._tsv = format == "tsv"
        self._temporary = [path.with_name(f"{path.name}.{os.getpid()}.tmp") for path in self.paths]
        self._created: list[Path] = []
        self._new_dirs = [d for d in (prefix.parent, *prefix.parent.parents) if not d.exists()]
        prefix.parent.mkdir(parents=True, exist_ok=True)
        self._files = ExitStack()
        try:
            files = [self._files.enter_context(self._create(p)) for p in self._temporary[:-1]]
            self._writes = [fh.write for fh in files]
            if self._tsv:
                self._writes[0](_TSV_HEADER + "\n")
        except BaseException:
            self.__exit__()
            raise

    def _create(self, path: Path):
        # Recorded once it exists, so the cleanup never removes what it did not make.
        fh = open(path, "w", encoding="utf-8", newline="\n")
        self._created.append(path)
        return fh

    def __enter__(self) -> CorpusWriter:
        return self

    def __exit__(self, *exc_info) -> None:
        try:
            self._files.close()
        finally:
            for path in self._created:
                path.unlink(missing_ok=True)  # a renamed one is gone already
            with suppress(OSError):  # one that holds a corpus or something else stays
                for directory in self._new_dirs:
                    directory.rmdir()

    def append(self, pair: LabeledPair) -> None:
        self.extend([pair])

    def extend(self, pairs: list[LabeledPair]) -> None:
        """Write ``pairs``, each file once; a sentence the reader could not give back is an error
        naming its pair, and then none of ``pairs`` is written."""
        tsv = self._tsv
        for pair in pairs:
            for text in (pair.complex, pair.simple):
                if "\n" in text or text.endswith("\r") or (tsv and "\t" in text):
                    raise ValueError(
                        f"pair {pair.index}: sentence {text!r} has a tab or line break "
                        f"that the {self.format} format cannot hold"
                    )
        if tsv:
            rows = []
            for pair in pairs:
                scores = (pair.bleu, pair.fres_complex, pair.fres_simple, pair.fres_gap)
                rows.append("\t".join((pair.complex, pair.simple, *map(_format_score, scores))))
            self._writes[0]("".join(row + "\n" for row in rows))
        else:
            write_complex, write_simple = self._writes
            write_complex("".join([pair.complex + "\n" for pair in pairs]))
            write_simple("".join([pair.simple + "\n" for pair in pairs]))

    def close(self, corpus: SimplificationCorpus, run_info: Optional[dict] = None) -> None:
        """Finish the pair files and write ``meta.json`` from ``corpus``, under temporary names."""
        meta = {
            "format": self.format,
            "lang": corpus.lang,
            "config": asdict(corpus.config_snapshot),
            "stats": asdict(corpus.stats),
            "drop_tally": asdict(corpus.drop_tally) if corpus.drop_tally else None,
        }
        if run_info:
            meta["run"] = run_info
        self._files.close()
        with self._create(self._temporary[-1]) as fh:
            json.dump(meta, fh, indent=2, ensure_ascii=False)
            fh.write("\n")


@contextmanager
def writing(prefixes: Iterable[Path | str], format: str = "plain") -> Iterator[list[CorpusWriter]]:
    """One :class:`CorpusWriter` per prefix, committed together when the block ends cleanly.

    Each writer must be closed in the block. Then every pair file is renamed
    into place, and every ``meta.json`` last: a corpus whose ``meta.json`` is
    in place is complete. Nothing is renamed while a target is a directory or
    a file is missing, and on any error each writer removes what it created.
    """
    with ExitStack() as stack:
        writers = [stack.enter_context(CorpusWriter(prefix, format)) for prefix in prefixes]
        yield writers
        moves = [move for w in writers for move in zip(w._temporary[:-1], w.paths[:-1])]
        moves += [(w._temporary[-1], w.paths[-1]) for w in writers]
        for source, target in moves:
            if target.is_dir():
                raise IsADirectoryError(f"cannot write {target}: it is a directory")
            if not source.is_file():
                raise FileNotFoundError(f"cannot write {target}: {source} is missing")
        for source, target in moves:
            os.replace(source, target)


def write_corpus(
    corpus: SimplificationCorpus,
    out_prefix: Path | str,
    format: str = "plain",
    run_info: Optional[dict] = None,
) -> list[Path]:
    """Write ``corpus`` through :func:`writing`; returns the paths written."""
    with writing([out_prefix], format) as (writer,):
        writer.extend(corpus.pairs)
        writer.close(corpus, run_info)
    return writer.paths


def read_meta(
    prefix: Path | str, format: str = "plain"
) -> tuple[str, SelectorConfig, Optional[DropTally]]:
    """The language, selector config and drop tally in ``<prefix>.meta.json``, with defaults.

    A corpus whose ``meta.json`` records a format other than ``format`` is an error.
    """
    meta_path = Path(f"{prefix}.meta.json")
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8")) if meta_path.exists() else {}
        if not isinstance(meta, dict):
            raise ValueError(f"expected a JSON object, got {type(meta).__name__}")
        if meta.get("format", format) != format:
            raise ValueError(f"the corpus format is {meta['format']!r}, not {format!r}")
        lang = meta.get("lang", "en")
        get_profile(lang)
        config = SelectorConfig(**meta.get("config", {}))
        tally = DropTally(**meta["drop_tally"]) if meta.get("drop_tally") else None
    except (TypeError, ValueError) as exc:  # not UTF-8, not JSON, unknown keys or language
        raise ValueError(f"{meta_path}: {exc}") from None
    return lang, config, tally


def count_pairs(prefix: Path | str, format: str = "plain") -> int:
    """Number of pairs in a corpus written by :class:`CorpusWriter`, from its line count."""
    lines = count_lines(_pair_paths(prefix, format)[0])
    return max(lines - (format == "tsv"), 0)  # less the TSV header


def iter_corpus(prefix: Path | str, format: str = "plain") -> Iterator[LabeledPair]:
    """Stream the pairs of a corpus written by :class:`CorpusWriter`, in order."""
    paths = _pair_paths(prefix, format)
    if format == "plain":
        complex_lines, simple_lines = open_aligned(*paths)
        rows = ((c, s, "", "", "", "") for c, s in zip(complex_lines, simple_lines))
    else:
        (path,) = paths
        lines = iter_lines(path)
        header = next(lines, None)
        if header != _TSV_HEADER:
            raise ValueError(f"{path}: header is {header!r}, expected {_TSV_HEADER!r}")
        rows = (line.split("\t") for line in lines)
    for index, fields in enumerate(rows):
        try:
            complex_text, simple_text, *scores = fields
            bleu, fres_complex, fres_simple, fres_gap = map(_parse_score, scores)
        except ValueError:  # a wrong field count or a score that is not a number
            raise ValueError(f"{path}: malformed row {index + 2}") from None
        yield LabeledPair(
            complex_text, simple_text, fres_gap or 0.0, "unlabeled", index,
            bleu, fres_complex, fres_simple,
        )


def read_corpus(prefix: Path | str, format: str = "plain") -> SimplificationCorpus:
    """Read a corpus written by :func:`write_corpus`, all its pairs in memory."""
    lang, config, tally = read_meta(prefix, format)
    pairs = list(iter_corpus(prefix, format))
    return SimplificationCorpus(
        pairs, lang, config, compute_corpus_stats(pairs, get_profile(lang)), tally
    )


def read_eval_dataset(directory: Path | str) -> tuple[list[str], list[list[str]]]:
    """Read a turk-style evaluation layout: ``<name>.src`` plus ``<name>.ref.<i>``.

    Returns sources and, per source, the ordered list of references. Every
    file's line count is checked against ``<name>.src`` up front.
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

    # Matched by prefix, not by a glob pattern: the name may hold glob characters.
    prefix = f"{name}.ref."
    ref_paths: dict[int, Path] = {}
    for path in sorted(directory.iterdir()):
        suffix = path.name[len(prefix) :]
        if path.name.startswith(prefix) and suffix.isascii() and suffix.isdigit():
            first = ref_paths.setdefault(int(suffix), path)
            if first != path:
                raise ValueError(f"{directory}: {first.name} and {path.name} are the same reference")
    if not ref_paths:
        raise ValueError(f"{directory}: no {name}.ref.<i> files found")
    ordered = [ref_paths.get(i) for i in range(max(ref_paths) + 1)]
    if None in ordered:
        raise ValueError(f"{directory}: missing reference file {name}.ref.{ordered.index(None)}")

    sources, references = [], []
    for source, *refs in zip(*open_aligned(src_path, *ordered), strict=True):
        sources.append(source)
        references.append(refs)
    return sources, references
