import json
import os
import re
import tempfile
import threading
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from synth import make_aligned_streams

from sscorpus.ingest import (
    CorpusWriter,
    TranslationSource,
    count_lines,
    count_pairs,
    iter_corpus,
    iter_lines,
    open_aligned,
    read_corpus,
    read_eval_dataset,
    translate,
    write_corpus,
    writing,
)
from sscorpus.pipeline import (
    LabeledPair,
    SelectorConfig,
    SimplificationCorpus,
    build_corpus,
    compute_corpus_stats,
)
from sscorpus.textprep import get_profile

EN = get_profile("en")


def write(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


class TestLineReading:
    def test_count_lines(self, tmp_path):
        path = write(tmp_path / "f.txt", ["a", "b", "c"])
        assert count_lines(path) == 3

    def test_count_lines_without_trailing_newline(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes(b"a\nb\nc")
        assert count_lines(path) == 3

    def test_empty_file(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes(b"")
        assert count_lines(path) == 0
        assert list(iter_lines(path)) == []

    def test_invalid_utf8_reports_line_number(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes(b"fine\n\xff\xfe broken\n")
        with pytest.raises(ValueError, match="line 2"):
            list(iter_lines(path))

    def test_nfc_normalization(self, tmp_path):
        decomposed = "étude"  # e + combining acute
        path = write(tmp_path / "f.txt", [decomposed])
        (line,) = iter_lines(path)
        assert line == "étude"


class TestOpenBitext:
    def test_streams_pairs_in_order(self, tmp_path):
        target = write(tmp_path / "t.txt", ["t1", "t2", "t3"])
        bridge = write(tmp_path / "b.txt", ["b1", "b2", "b3"])
        pairs = list(zip(*open_aligned(target, bridge)))
        assert pairs == [("t1", "b1"), ("t2", "b2"), ("t3", "b3")]

    def test_mismatch_reports_both_counts(self, tmp_path):
        target = write(tmp_path / "t.txt", ["a", "b", "c"])
        bridge = write(tmp_path / "b.txt", ["w", "x", "y", "z"])
        with pytest.raises(ValueError, match=r"3 lines .* vs 4 lines"):
            open_aligned(target, bridge)

    def test_empty_files(self, tmp_path):
        target = tmp_path / "t.txt"
        bridge = tmp_path / "b.txt"
        target.write_bytes(b"")
        bridge.write_bytes(b"")
        assert list(zip(*open_aligned(target, bridge))) == []


class TestTranslate:
    def test_precomputed_reads_file_verbatim(self, tmp_path):
        target = write(tmp_path / "t.txt", ["a", "b", "c"])
        path = write(tmp_path / "mt.txt", ["one", "two", "three"])
        _, translations = open_aligned(target, path)
        assert list(translations) == ["one", "two", "three"]

    def test_external_identity_command(self):
        lines = [f"sentence number {i}" for i in range(37)]
        source = TranslationSource("cat", batch_size=8)
        assert list(translate(iter(lines), source)) == lines

    def test_external_empty_input(self):
        source = TranslationSource("cat", batch_size=4)
        assert list(translate(iter([]), source)) == []

    def test_external_short_output_reports_batch(self):
        lines = [f"line {i}" for i in range(10)]
        source = TranslationSource("head -n 2", batch_size=4)
        with pytest.raises(RuntimeError, match="batch 0"):
            list(translate(iter(lines), source))

    def test_external_failing_command(self):
        source = TranslationSource("false", batch_size=2)
        with pytest.raises(RuntimeError, match="exit code 1"):
            list(translate(iter(["a", "b"]), source))

    def test_external_extra_output_after_last_batch(self):
        source = TranslationSource("sh -c 'cat; echo extra'", batch_size=2)
        with pytest.raises(RuntimeError, match="more output lines than input lines"):
            list(translate(iter(["a", "b", "c"]), source))

    def test_external_fails_after_answering_every_line(self):
        source = TranslationSource("sh -c 'cat; exit 3'", batch_size=2)
        with pytest.raises(RuntimeError, match=r"failed with exit code 3$"):
            list(translate(iter(["a", "b", "c"]), source))

    def test_external_invalid_utf8_names_output_and_line(self):
        # Answers line by line; the answer to "bad" is not UTF-8.
        command = r"""sh -c 'while read -r l; do
            if [ "$l" = bad ]; then printf "\377\n"; else echo "$l"; fi; done'"""
        source = TranslationSource(command, batch_size=2)
        with pytest.raises(ValueError, match="translator output: invalid UTF-8 on line 3"):
            list(translate(iter(["a", "b", "bad", "c"]), source))

    def test_blank_command_is_rejected(self):
        for command in ("", " \t "):
            with pytest.raises(ValueError, match="translator command is empty"):
                TranslationSource(command)

    def test_batch_size_must_be_positive(self):
        with pytest.raises(ValueError, match="batch_size must be >= 1"):
            TranslationSource("cat", batch_size=0)

    @pytest.mark.parametrize("timeout", [-1.0, 0.0, float("nan"), float("inf")])
    def test_timeout_must_be_positive_and_finite(self, timeout):
        with pytest.raises(ValueError, match="timeout must be a positive finite number"):
            TranslationSource("cat", timeout=timeout)

    def test_external_timeout(self):
        source = TranslationSource("sleep 30", batch_size=2, timeout=0.3)
        with pytest.raises(RuntimeError, match="timed out"):
            list(translate(iter(["a", "b"]), source))

    def test_external_timeout_longer_than_one_wait(self):
        # 1e10 s is far beyond the longest single epoll wait, 2**31 - 1 ms.
        source = TranslationSource("cat", batch_size=2, timeout=1e10)
        assert list(translate(iter(["a", "b", "c"]), source)) == ["a", "b", "c"]

    def test_external_open_after_last_batch(self):
        # Answers every line, then keeps stdout open instead of exiting.
        source = TranslationSource("sh -c 'cat; exec sleep 30'", batch_size=2, timeout=0.5)
        with pytest.raises(RuntimeError, match=r"did not exit within 0\.5s"):
            list(translate(iter(["a", "b", "c"]), source))

    def test_external_closes_output_but_keeps_running(self):
        # Answers every line and closes stdout, but does not exit.
        command = "sh -c 'cat; exec 1>&-; exec sleep 30'"
        source = TranslationSource(command, batch_size=2, timeout=0.5)
        with pytest.raises(RuntimeError, match=r"after the last batch but did not exit within 0\.5s"):
            list(translate(iter(["a", "b", "c"]), source))

    def test_external_short_output_then_keeps_running(self):
        command = "sh -c 'head -n 1; exec 1>&-; exec sleep 30'"
        source = TranslationSource(command, batch_size=4, timeout=0.5)
        with pytest.raises(RuntimeError, match=r"at batch 0 but did not exit within 0\.5s"):
            list(translate(iter(["a", "b", "c"]), source))

    def test_external_batch_larger_than_both_pipe_buffers(self):
        # 300 kB each way in one batch: the input cannot all be written before output is read.
        lines = [f"{i:04d}" + "x" * 95 for i in range(3000)]
        source = TranslationSource("cat", batch_size=3000)
        assert list(translate(iter(lines), source)) == lines

    def test_external_long_line(self):
        lines = ["y" * (4 << 20), "short"]
        source = TranslationSource("cat", batch_size=2)
        assert list(translate(iter(lines), source)) == lines

    def test_external_last_line_without_newline(self):
        source = TranslationSource(r"""sh -c 'cat >/dev/null; printf "x\ny"'""", batch_size=2)
        assert list(translate(iter(["a", "b"]), source)) == ["x", "y"]

    def test_external_starts_no_thread(self):
        before = threading.active_count()
        translations = translate(iter(["a", "b", "c"]), TranslationSource("cat", batch_size=2))
        assert next(translations) == "a"
        assert threading.active_count() == before
        assert list(translations) == ["b", "c"]
        assert threading.active_count() == before
        with pytest.raises(RuntimeError, match="timed out"):
            list(translate(iter(["a"]), TranslationSource("sleep 30", timeout=0.3)))
        assert threading.active_count() == before


class TestCorpusPersistence:
    def build(self, n=40):
        targets, translations = make_aligned_streams(n, seed=31)
        return build_corpus(targets, translations, SelectorConfig(), EN)

    def test_plain_round_trip(self, tmp_path):
        corpus = self.build()
        assert corpus.pairs
        write_corpus(corpus, tmp_path / "out", format="plain")
        loaded = read_corpus(tmp_path / "out", format="plain")
        assert [(p.complex, p.simple) for p in loaded.pairs] == [
            (p.complex, p.simple) for p in corpus.pairs
        ]
        assert loaded.config_snapshot == corpus.config_snapshot
        assert loaded.lang == corpus.lang

    def test_tsv_round_trip(self, tmp_path):
        corpus = self.build()
        write_corpus(corpus, tmp_path / "out", format="tsv")
        loaded = read_corpus(tmp_path / "out", format="tsv")
        assert [(p.complex, p.simple) for p in loaded.pairs] == [
            (p.complex, p.simple) for p in corpus.pairs
        ]
        assert loaded.pairs[0].bleu == pytest.approx(corpus.pairs[0].bleu, abs=1e-6)

    def test_plain_files_are_lf_terminated_utf8(self, tmp_path):
        corpus = self.build()
        write_corpus(corpus, tmp_path / "out", format="plain")
        data = (tmp_path / "out.complex").read_bytes()
        assert b"\r" not in data
        assert data.endswith(b"\n")
        assert data.decode("utf-8")

    def test_empty_corpus_writes_valid_meta(self, tmp_path):
        corpus = build_corpus([], [], SelectorConfig(), EN)
        paths = write_corpus(corpus, tmp_path / "empty", format="plain")
        meta = json.loads((tmp_path / "empty.meta.json").read_text(encoding="utf-8"))
        assert meta["stats"]["total_pairs"] == 0
        assert (tmp_path / "empty.complex").read_bytes() == b""
        assert len(paths) == 3

    def test_meta_records_config_and_tally(self, tmp_path):
        corpus = self.build()
        write_corpus(corpus, tmp_path / "out", run_info={"note": "test"})
        meta = json.loads((tmp_path / "out.meta.json").read_text(encoding="utf-8"))
        assert meta["config"]["h_bleu"] == 15.0
        assert meta["config"]["h_fres"] == 10.0
        assert meta["drop_tally"]["n_kept"] == len(corpus.pairs)
        assert meta["run"] == {"note": "test"}

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown corpus format"):
            write_corpus(self.build(), tmp_path / "out", format="xml")

    def test_reading_in_a_format_other_than_the_recorded_one_is_an_error(self, tmp_path):
        corpus = self.build()
        write_corpus(corpus, tmp_path / "out", format="tsv")
        meta_path = tmp_path / "out.meta.json"
        with pytest.raises(ValueError) as excinfo:
            read_corpus(tmp_path / "out")
        assert str(excinfo.value) == f"{meta_path}: the corpus format is 'tsv', not 'plain'"
        # A meta.json that records no format is read in the format asked for, as before.
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        del meta["format"]
        meta_path.write_text(json.dumps(meta), encoding="utf-8")
        assert len(read_corpus(tmp_path / "out", format="tsv").pairs) == len(corpus.pairs)
        with pytest.raises(FileNotFoundError):
            read_corpus(tmp_path / "out")

    def test_a_language_that_could_not_be_read_back_is_refused(self, tmp_path):
        # read_meta takes back only a shipped profile's name, so no such corpus is written.
        custom = replace(EN, lang_code="en-custom")
        targets, translations = make_aligned_streams(40, seed=31)
        corpus = build_corpus(targets, translations, SelectorConfig(), custom)
        assert corpus.pairs
        meta_path = re.escape(str(tmp_path / "out.meta.json"))
        with pytest.raises(ValueError, match=rf"^{meta_path}: unknown language profile 'en-custom'"):
            write_corpus(corpus, tmp_path / "out")
        assert list(tmp_path.iterdir()) == []
        meta_path = re.escape(str(tmp_path / "new" / "out.meta.json"))
        with pytest.raises(ValueError, match=rf"^{meta_path}: unknown language profile 'en-custom'"):
            with writing([tmp_path / "new" / "out"], "tsv") as (writer,):
                streamed = build_corpus(targets, translations, SelectorConfig(), custom, sink=writer)
                assert streamed.stats == corpus.stats
                writer.close(streamed)
        assert list(tmp_path.iterdir()) == []

    def test_tsv_keeps_carriage_return_and_rejects_tab(self, tmp_path):
        kept = text_corpus([("a\rb", "c d")])
        write_corpus(kept, tmp_path / "cr", format="tsv")
        assert [(p.complex, p.simple) for p in read_corpus(tmp_path / "cr", "tsv").pairs] == [
            ("a\rb", "c d")
        ]
        tabbed = text_corpus([("fine", "fine too"), ("a\tb", "c")])
        with pytest.raises(ValueError, match="pair 1"):
            write_corpus(tabbed, tmp_path / "tab", format="tsv")
        assert list(tmp_path.glob("tab*")) == []
        write_corpus(tabbed, tmp_path / "tab", format="plain")
        assert read_corpus(tmp_path / "tab").pairs[1].complex == "a\tb"

    def test_failed_write_leaves_no_corpus(self, tmp_path, monkeypatch):
        corpus = self.build()
        write_corpus(corpus, tmp_path / "old", format="plain")
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}

        def failing_dump(*args, **kwargs):
            raise OSError("no space left on device")

        monkeypatch.setattr(json, "dump", failing_dump)
        for format in ("plain", "tsv"):
            for prefix in ("new", "old"):
                with pytest.raises(OSError, match="no space left"):
                    write_corpus(text_corpus([("a b c", "a b")]), tmp_path / prefix, format)
        # no new file under a final or a temporary name; the earlier corpus is untouched
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before

    def test_interrupted_writer_leaves_no_corpus(self, tmp_path):
        corpus = self.build()
        write_corpus(corpus, tmp_path / "old", format="plain")
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        for format in ("plain", "tsv"):
            for prefix in ("new", "old"):
                with pytest.raises(KeyboardInterrupt):
                    with CorpusWriter(tmp_path / prefix, format) as writer:
                        writer.extend([corpus.pairs[0]])
                        writer.close(corpus)  # complete under temporary names
                        raise KeyboardInterrupt
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before

    def test_tsv_header_is_checked(self, tmp_path):
        write_corpus(self.build(), tmp_path / "out", format="tsv")
        path = tmp_path / "out.tsv"
        path.write_bytes(b"complex\tsimple\n" + path.read_bytes().split(b"\n", 1)[1])
        with pytest.raises(ValueError, match="header"):
            read_corpus(tmp_path / "out", format="tsv")
        path.write_bytes(b"")
        with pytest.raises(ValueError, match="header"):
            read_corpus(tmp_path / "out", format="tsv")

    def test_tsv_row_with_wrong_field_count(self, tmp_path):
        write_corpus(self.build(), tmp_path / "out", format="tsv")
        path = tmp_path / "out.tsv"
        with path.open("a", encoding="utf-8") as fh:
            fh.write("complex\tsimple\t1.0\n")
        n_rows = count_lines(path)
        with pytest.raises(ValueError, match=rf"out\.tsv: malformed row {n_rows}$"):
            list(iter_corpus(tmp_path / "out", format="tsv"))

    def test_tsv_score_that_is_not_a_number(self, tmp_path):
        write_corpus(self.build(), tmp_path / "out", format="tsv")
        path = tmp_path / "out.tsv"
        with path.open("a", encoding="utf-8") as fh:
            fh.write("complex\tsimple\tx\t1.0\t2.0\t-1.0\n")
        n_rows = count_lines(path)
        with pytest.raises(ValueError, match=rf"out\.tsv: malformed row {n_rows}$"):
            list(iter_corpus(tmp_path / "out", format="tsv"))

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError, match="unknown corpus format 'json'"):
            next(iter_corpus(tmp_path / "out", format="json"))
        with pytest.raises(ValueError, match="unknown corpus format 'json'"):
            count_pairs(tmp_path / "out", format="json")

    def test_writer_that_cannot_open_a_temporary_file(self, tmp_path):
        write_corpus(self.build(), tmp_path / "old", format="plain")
        # A directory holds the name of the second temporary file.
        (tmp_path / f"old.simple.{os.getpid()}.tmp").mkdir()
        before = {path.name: path.is_file() and path.read_bytes() for path in tmp_path.iterdir()}
        with pytest.raises(OSError, match=rf"old\.simple\.{os.getpid()}\.tmp") as raised:
            CorpusWriter(tmp_path / "old", "plain")
        assert raised.value.__context__ is None  # the cleanup raised nothing over it
        assert {p.name: p.is_file() and p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_interrupted_writing_keeps_what_the_writer_did_not_make(self, tmp_path):
        corpus = self.build()
        # A directory takes the meta.json temporary name before close() would create it.
        foreign = tmp_path / "out" / f"c.meta.json.{os.getpid()}.tmp"
        with pytest.raises(KeyboardInterrupt):
            with writing([tmp_path / "out" / "c"], "plain") as (writer,):
                writer.extend([corpus.pairs[0]])
                foreign.mkdir()
                raise KeyboardInterrupt
        assert sorted(tmp_path.rglob("*")) == [tmp_path / "out", foreign]

    def test_writing_commits_every_writer_or_none(self, tmp_path):
        corpus = self.build()
        prefixes = [tmp_path / "a", tmp_path / "b"]
        (tmp_path / "b.complex").mkdir()
        with pytest.raises(IsADirectoryError, match=r"b\.complex"):
            with writing(prefixes, "plain") as writers:
                for writer in writers:
                    writer.close(corpus)
        assert list(tmp_path.iterdir()) == [tmp_path / "b.complex"]
        (tmp_path / "b.complex").rmdir()
        write_corpus(corpus, tmp_path / "a")
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        with pytest.raises(FileNotFoundError, match=r"a\.meta\.json: .*\.tmp is missing"):
            with writing(prefixes, "plain") as writers:
                writers[1].close(corpus)  # the first writer is never closed
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before
        with writing([tmp_path / "new" / "a", tmp_path / "new" / "b"], "tsv") as writers:
            for writer in writers:
                writer.extend([corpus.pairs[0]])
                writer.close(corpus)
        assert sorted(p.name for p in (tmp_path / "new").iterdir()) == [
            "a.meta.json", "a.tsv", "b.meta.json", "b.tsv"
        ]
        assert [p.complex for p in iter_corpus(tmp_path / "new" / "b", "tsv")] == [
            corpus.pairs[0].complex
        ]

    def test_two_prefixes_that_name_the_same_files_are_refused(self, tmp_path):
        # Both writers would share temporary files, and the commit would fail halfway through.
        corpus = self.build()
        write_corpus(corpus, tmp_path / "out" / "x")
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        for parent in ("out", "new"):
            prefixes = [tmp_path / parent / "x", tmp_path / parent / ".." / parent / "x"]
            message = f"{re.escape(str(prefixes[0]))}, {re.escape(str(prefixes[1]))}"
            for format in ("plain", "tsv"):
                with pytest.raises(ValueError, match=f"name the same files: {message}$"):
                    with writing(prefixes, format) as writers:
                        for writer in writers:
                            writer.extend(corpus.pairs)
                            writer.close(corpus)
        assert sorted(tmp_path.rglob("*")) == [tmp_path / "out", *sorted(before)]
        assert {p: p.read_bytes() for p in before} == before


def text_corpus(sentence_pairs) -> SimplificationCorpus:
    pairs = [
        LabeledPair(complex, simple, 0.0, "unlabeled", index)
        for index, (complex, simple) in enumerate(sentence_pairs)
    ]
    return SimplificationCorpus(pairs, "en", SelectorConfig(), compute_corpus_stats(pairs))


def reads_back(text: str, format: str, path: Path) -> bool:
    """Whether the corpus line reader gives ``text`` back unchanged as one line (one TSV field)."""
    if format == "tsv" and "\t" in text:
        return False
    path.write_bytes(text.encode("utf-8", "surrogatepass") + b"\n")
    try:
        return list(iter_lines(path)) == [text]
    except ValueError:  # not UTF-8: a lone surrogate
        return False


# Text meeting each rule of the reader: line breaks it splits at or strips, others it keeps
# (U+2028, U+0085, form feed, an inner carriage return), a tab, combining marks that NFC
# composes, and lone surrogates.
ANY_TEXT = st.text(
    st.one_of(
        st.sampled_from(["\t", "\r", "\n", "\f", " ", "\u2028", "\u0085", "e", "\u0301", "\ud800"]),
        st.characters(),
    ),
    max_size=12,
)


@settings(max_examples=300, deadline=None)
@given(
    format=st.sampled_from(["plain", "tsv"]),
    sentence_pairs=st.lists(st.tuples(ANY_TEXT, ANY_TEXT), max_size=4),
)
@example(format="plain", sentence_pairs=[("Caf\xe9 au lait.", "ok"), ("Cafe\u0301 au lait.", "ok")])
@example(format="tsv", sentence_pairs=[("ok", "Cafe\u0301 au lait.")])
@example(format="plain", sentence_pairs=[("a\u2028b", "c\u0085d"), ("e\ff", "g\rh")])
@example(format="tsv", sentence_pairs=[("a\u2028b", "c\u0085d"), ("e\ff", "g\rh")])
@example(format="plain", sentence_pairs=[("ok", "ok"), ("lone \udc80 surrogate", "ok")])
@example(format="tsv", sentence_pairs=[("\ud83d", "ok")])
def test_round_trip_or_rejection_property(format, sentence_pairs):
    # Any text reads back identical, or the first pair that would not is named and no file stays.
    corpus = text_corpus(sentence_pairs)
    with tempfile.TemporaryDirectory() as directory:
        probe = Path(directory) / "probe"
        bad = [
            index
            for index, pair in enumerate(sentence_pairs)
            if not all(reads_back(text, format, probe) for text in pair)
        ]
        probe.unlink(missing_ok=True)
        prefix = Path(directory) / "c"
        if bad:
            with pytest.raises(ValueError, match=f"^pair {bad[0]}:"):
                write_corpus(corpus, prefix, format=format)
            assert list(Path(directory).iterdir()) == []
            return
        write_corpus(corpus, prefix, format=format)
        loaded = read_corpus(prefix, format=format)
    assert [(p.complex, p.simple) for p in loaded.pairs] == sentence_pairs


class TestEvalDataset:
    def make_dataset(self, tmp_path, n_refs=2, n_lines=5, name="dev"):
        lines = [f"source sentence {i}" for i in range(n_lines)]
        write(tmp_path / f"{name}.src", lines)
        for r in range(n_refs):
            write(tmp_path / f"{name}.ref.{r}", [f"reference {r} for {i}" for i in range(n_lines)])
        return tmp_path

    def test_reads_sources_and_ordered_refs(self, tmp_path):
        directory = self.make_dataset(tmp_path, n_refs=3)
        sources, references = read_eval_dataset(directory)
        assert len(sources) == 5
        assert all(len(refs) == 3 for refs in references)
        assert references[2][1] == "reference 1 for 2"

    def test_name_with_glob_characters(self, tmp_path):
        directory = self.make_dataset(tmp_path, n_refs=2, name="t[1]")
        sources, references = read_eval_dataset(directory)
        assert sources[0] == "source sentence 0"
        assert references[4] == ["reference 0 for 4", "reference 1 for 4"]

    def test_missing_ref_index_is_an_error(self, tmp_path):
        directory = self.make_dataset(tmp_path, n_refs=1)
        (tmp_path / "dev.ref.2").write_text("x\n" * 5, encoding="utf-8")
        with pytest.raises(ValueError, match="dev.ref.1"):
            read_eval_dataset(directory)

    def test_wrong_line_count_names_the_file(self, tmp_path):
        directory = self.make_dataset(tmp_path)
        write(tmp_path / "dev.ref.1", ["only one line"])
        with pytest.raises(ValueError, match="dev.ref.1"):
            read_eval_dataset(directory)

    def test_wrong_line_count_is_found_before_reading(self, tmp_path):
        directory = self.make_dataset(tmp_path)
        # Decoding would stop at the invalid byte; the line count is checked first.
        (tmp_path / "dev.ref.0").write_bytes(b"one\ntwo\nthree\nfour\nfive\n\xff\n")
        with pytest.raises(ValueError, match=r"5 lines in .*dev\.src vs 6 lines in .*dev\.ref\.0"):
            read_eval_dataset(directory)

    @pytest.mark.parametrize("padded", ["dev.ref.01", "dev.ref.001"])
    def test_two_files_with_one_index_is_an_error(self, tmp_path, padded):
        directory = self.make_dataset(tmp_path)
        write(tmp_path / padded, ["x"] * 5)
        with pytest.raises(ValueError, match=rf"{padded} and dev\.ref\.1 are the same reference"):
            read_eval_dataset(directory)

    @pytest.mark.parametrize("suffix", ["\u00b2", "\u0661", "\uff11"])
    def test_only_ascii_digit_suffixes_are_references(self, tmp_path, suffix):
        directory = self.make_dataset(tmp_path)
        write(tmp_path / f"dev.ref.{suffix}", ["x"])
        _, references = read_eval_dataset(directory)
        assert references[0] == ["reference 0 for 0", "reference 1 for 0"]

    def test_a_non_ascii_digit_suffix_alone_is_no_reference(self, tmp_path):
        write(tmp_path / "dev.src", ["x"])
        write(tmp_path / "dev.ref.\u0661", ["y"])
        with pytest.raises(ValueError, match=r"no dev\.ref\.<i> files found"):
            read_eval_dataset(tmp_path)

    def test_no_ref_files_is_an_error(self, tmp_path):
        write(tmp_path / "dev.src", ["x"])
        with pytest.raises(ValueError, match=r"no dev\.ref\.<i> files found"):
            read_eval_dataset(tmp_path)

    def test_no_src_file_is_an_error(self, tmp_path):
        with pytest.raises(ValueError, match="exactly one .src"):
            read_eval_dataset(tmp_path)

    def test_two_src_files_is_an_error(self, tmp_path):
        self.make_dataset(tmp_path)
        write(tmp_path / "other.src", ["x"] * 5)
        with pytest.raises(ValueError, match="exactly one .src"):
            read_eval_dataset(tmp_path)
