"""Line-aligned file ingestion, the external-translator bridge, and corpus files.

All text, file lines and translator output alike, is decoded as strict
UTF-8 and normalized to Unicode NFC on read, so downstream equality checks
and tokenization are stable. The translator is a child process; one selector
loop on its two POSIX pipes writes the next batch while it reads the current
one, with no thread. Readers and the corpus writer stream, so the command
line's ``build``, ``ablate``, ``stats`` and ``subset`` keep no whole corpus
in memory; only :func:`read_corpus`, which returns one, and the small
evaluation datasets are held whole. Every corpus is committed by one
:func:`writing` block, and a failed run removes only what it created.
"""

from __future__ import annotations

import json
import math
import os
import unicodedata
from contextlib import ExitStack, contextmanager, suppress
from dataclasses import asdict, dataclass
from itertools import count, islice
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


FORMATS = {"plain": (".complex", ".simple"), "tsv": (".tsv",)}  # each corpus format's pair-file suffixes
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
    import selectors, shlex, subprocess, time

    timeout, size = source.timeout, source.batch_size
    args = shlex.split(source.command)
    proc = subprocess.Popen(args, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    unsent = bytearray()  # stdin is registered for writing while this is not empty
    received: list[bytes] = []  # complete output lines not yet handed out
    partial = bytearray()  # the output line still being read

    def pump(needed: int, late: str) -> bool:
        """Move bytes both ways until ``needed`` lines are in; False if the output ends first."""
        deadline = time.monotonic() + timeout
        while len(received) < needed and not proc.stdout.closed:
            # epoll waits at most 2**31 - 1 ms at once, so a long timeout waits a day at a time.
            events = selector.select(min(deadline - time.monotonic(), 86400))
            if not events and time.monotonic() >= deadline:
                raise RuntimeError("translator " + late)
            for key, _ in events:
                if key.fileobj is proc.stdin:
                    try:
                        del unsent[: os.write(key.fd, unsent)]
                    except BrokenPipeError:
                        unsent.clear()  # the child's output and exit code report why
                    if not unsent:
                        selector.unregister(proc.stdin)
                        if not ahead:  # no batch follows: end the child's input
                            proc.stdin.close()
                elif chunk := os.read(key.fd, 1 << 16):
                    partial.extend(chunk)
                    if b"\n" in chunk:  # split only at a line end: a long line reads in linear time
                        *complete, rest = partial.split(b"\n")
                        received.extend(complete)
                        partial[:] = rest
                else:  # end of output; a last line without a newline still counts
                    selector.unregister(proc.stdout)
                    proc.stdout.close()
                    if partial:
                        received.append(partial)
        return len(received) >= needed

    def finish(when: str, where: str = "") -> None:
        # The translator closed its stdout; it should exit right after, and cleanly.
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            raise RuntimeError(
                f"translator closed its output {when} but did not exit within {timeout:g}s"
            ) from None
        if proc.returncode:
            raise RuntimeError(f"translator command failed with exit code {proc.returncode}{where}")

    with proc, selectors.DefaultSelector() as selector:  # exit closes the pipes, reaps the child
        try:
            os.set_blocking(proc.stdin.fileno(), False)
            selector.register(proc.stdout, selectors.EVENT_READ)
            line_iter = iter(lines)
            batch: list[str] = []
            # Batch k+1 is queued before batch k is pumped: one batch of read-ahead.
            for k in count(-1):
                ahead = list(islice(line_iter, size))
                if ahead:
                    if not unsent:
                        selector.register(proc.stdin, selectors.EVENT_WRITE)
                    unsent.extend("".join(line + "\n" for line in ahead).encode("utf-8"))
                elif not unsent:
                    proc.stdin.close()
                if batch:
                    first, last = k * size + 1, k * size + len(batch)
                    late = f"timed out after {timeout:g}s at batch {k} (lines {first}-{last})"
                    if not pump(len(batch), late):
                        finish(f"at batch {k}", f" at batch {k}")
                        raise RuntimeError(
                            f"translator produced {len(received)} lines for batch {k} "
                            f"(expected {len(batch)}, lines {first}-{last})"
                        )
                    yield from [
                        _decode(raw, "translator output", lineno)
                        for lineno, raw in enumerate(received[: len(batch)], first)
                    ]
                    del received[: len(batch)]
                if not ahead:
                    break
                batch = ahead

            # All input consumed; any further output means the command is misbehaving.
            if pump(1, f"did not exit within {timeout:g}s after the last batch"):
                raise RuntimeError("translator produced more output lines than input lines")
            finish("after the last batch")
        finally:
            proc.kill()  # a no-op once the child has exited


def _format_score(value: Optional[float]) -> str:
    return "" if value is None else f"{value:.6f}"


def _parse_score(text: str) -> Optional[float]:
    return None if text == "" else float(text)


def _pair_paths(prefix: Path | str, format: str) -> list[Path]:
    """The pair files of a corpus at ``prefix``; the one place a format name is checked."""
    if format not in FORMATS:
        raise ValueError(f"unknown corpus format {format!r}")
    return [Path(f"{prefix}{suffix}") for suffix in FORMATS[format]]


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
        self._temporary = [path.with_name(f"{path.name}.{os.getpid()}.tmp") for path in self.paths]
        self._created: list[Path] = []
        self._new_dirs = [d for d in (prefix.parent, *prefix.parent.parents) if not d.exists()]
        prefix.parent.mkdir(parents=True, exist_ok=True)
        self._files = ExitStack()
        try:
            files = [self._files.enter_context(self._create(p)) for p in self._temporary[:-1]]
            self._writes = [fh.write for fh in files]
            if format == "tsv":
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

    def extend(self, pairs: list[LabeledPair]) -> None:
        """Write ``pairs``, each file once; a sentence the reader could not give back is an error
        naming its pair, and then none of ``pairs`` is written."""
        tsv = self.format == "tsv"
        for pair in pairs:
            for text in (pair.complex, pair.simple):
                if "\n" in text or text.endswith("\r") or (tsv and "\t" in text):
                    raise ValueError(
                        f"pair {pair.index}: sentence {text!r} has a tab or line break "
                        f"that the {self.format} format cannot hold"
                    )
                if not text.isascii() and text != unicodedata.normalize(
                    "NFC", text.encode(errors="replace").decode()  # "?" for a lone surrogate
                ):
                    raise ValueError(f"pair {pair.index}: sentence {text!r} is not NFC UTF-8 text")
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
        try:
            get_profile(corpus.lang)  # read_meta takes back only a shipped profile's name
        except ValueError as exc:
            raise ValueError(f"{self.paths[-1]}: {exc}") from None
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
    Prefixes that name the same files are an error, and then nothing is created.
    """
    prefixes = list(prefixes)
    if len({Path(prefix).resolve() for prefix in prefixes}) < len(prefixes):
        raise ValueError(f"output prefixes name the same files: {', '.join(map(str, prefixes))}")
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
    return SimplificationCorpus(pairs, lang, config, compute_corpus_stats(pairs), tally)


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

    items = [(src, refs) for src, *refs in zip(*open_aligned(src_path, *ordered), strict=True)]
    return [src for src, _ in items], [refs for _, refs in items]
