import json
import tempfile
import unicodedata
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synth import make_aligned_streams

from sscorpus.ingest import (
    TranslationSource,
    count_lines,
    iter_lines,
    open_aligned,
    read_corpus,
    read_eval_dataset,
    translate,
    write_corpus,
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

    def test_external_timeout(self):
        source = TranslationSource("sleep 30", batch_size=2, timeout=0.3)
        with pytest.raises(RuntimeError, match="timed out"):
            list(translate(iter(["a", "b"]), source))

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

    def test_tsv_header_is_checked(self, tmp_path):
        write_corpus(self.build(), tmp_path / "out", format="tsv")
        path = tmp_path / "out.tsv"
        path.write_bytes(b"complex\tsimple\n" + path.read_bytes().split(b"\n", 1)[1])
        with pytest.raises(ValueError, match="header"):
            read_corpus(tmp_path / "out", format="tsv")
        path.write_bytes(b"")
        with pytest.raises(ValueError, match="header"):
            read_corpus(tmp_path / "out", format="tsv")


def text_corpus(sentence_pairs) -> SimplificationCorpus:
    pairs = [
        LabeledPair(complex, simple, 0.0, "unlabeled", index)
        for index, (complex, simple) in enumerate(sentence_pairs)
    ]
    return SimplificationCorpus(pairs, "en", SelectorConfig(), compute_corpus_stats(pairs, EN))


def readable(text: str, format: str) -> bool:
    """The write rule: what each format can give back unchanged."""
    return "\n" not in text and not text.endswith("\r") and (format == "plain" or "\t" not in text)


NFC_TEXT = st.text(
    st.one_of(st.sampled_from("\t\r\n \u0301"), st.characters(blacklist_categories=("Cs",))),
    max_size=12,
).map(lambda text: unicodedata.normalize("NFC", text))


@settings(max_examples=150, deadline=None)
@given(
    format=st.sampled_from(["plain", "tsv"]),
    sentence_pairs=st.lists(st.tuples(NFC_TEXT, NFC_TEXT), max_size=4),
)
def test_round_trip_or_rejection_property(format, sentence_pairs):
    corpus = text_corpus(sentence_pairs)
    bad = [
        index
        for index, pair in enumerate(sentence_pairs)
        if not all(readable(text, format) for text in pair)
    ]
    with tempfile.TemporaryDirectory() as directory:
        prefix = Path(directory) / "c"
        if bad:
            with pytest.raises(ValueError, match=f"pair {bad[0]}:"):
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

    def test_no_src_file_is_an_error(self, tmp_path):
        with pytest.raises(ValueError, match="exactly one .src"):
            read_eval_dataset(tmp_path)

    def test_two_src_files_is_an_error(self, tmp_path):
        self.make_dataset(tmp_path)
        write(tmp_path / "other.src", ["x"] * 5)
        with pytest.raises(ValueError, match="exactly one .src"):
            read_eval_dataset(tmp_path)
