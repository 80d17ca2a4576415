import json
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sscorpus import metrics
from sscorpus.ingest import read_eval_dataset
from sscorpus.metrics import (
    EvalReport,
    corpus_bleu,
    corpus_fkgl,
    evaluate,
    fkgl,
    fres,
    sari,
    sentence_bleu,
)
from sscorpus.textprep import get_profile, metric_tokens

EN = get_profile("en")
FR = get_profile("fr")


def text_with(n_words_per_sentence: int, n_sentences: int, syllables: list[int]) -> str:
    """Build a text with exact word/sentence/syllable counts from stock words."""
    words_by_syllables = {1: "go", 2: "hello", 3: "banana"}
    assert len(syllables) == n_words_per_sentence * n_sentences
    sentences = []
    for s in range(n_sentences):
        chunk = syllables[s * n_words_per_sentence : (s + 1) * n_words_per_sentence]
        sentences.append(" ".join(words_by_syllables[k] for k in chunk) + ".")
    return " ".join(sentences)


class TestFres:
    def test_one_word_english(self):
        assert fres("Go.", EN) == pytest.approx(206.835 - 1.015 * 1 - 84.6 * 1, abs=1e-9)

    def test_one_word_french(self):
        assert fres("Go.", FR) == pytest.approx(207.0 - 1.015 * 1 - 73.6 * 1, abs=1e-9)

    def test_ten_words_two_syllables_each(self):
        text = text_with(10, 1, [2] * 10)
        assert fres(text, EN) == pytest.approx(206.835 - 1.015 * 10 - 84.6 * 2, abs=1e-9)

    def test_no_words_is_an_error(self):
        with pytest.raises(ValueError, match="undefined readability"):
            fres("?!...", EN)
        with pytest.raises(ValueError, match="undefined readability"):
            fres("", EN)

    def test_not_clamped(self):
        assert fres("Go.", EN) > 100.0
        hard = " ".join(["impossibility"] * 40) + "."
        assert fres(hard, EN) < 0.0

    def test_decreases_with_syllables_per_word(self):
        scores = [
            fres(text_with(8, 1, [k] * 8), EN) for k in (1, 2, 3)
        ]
        assert scores[0] > scores[1] > scores[2]

    def test_coefficients_verbatim(self):
        assert (EN.k1, EN.k2, EN.k3) == (206.835, 1.015, 84.6)
        assert (FR.k1, FR.k2, FR.k3) == (207.0, 1.015, 73.6)
        es = get_profile("es-paper")
        assert (es.k1, es.k2, es.k3) == (180.0, 58.5, 1.0)

    def test_the_two_spanish_profiles_score_differently(self):
        assert fres("Sol.", get_profile("es-paper")) == pytest.approx(
            180.0 - 58.5 - 1.0, abs=1e-9
        )
        assert fres("Sol.", get_profile("es-fh")) == pytest.approx(
            206.84 - 1.02 - 60.0, abs=1e-9
        )


class TestFkgl:
    # Under the grade-level counting conventions every token counts as a
    # word, punctuation included, so constructions avoid stray punctuation.

    def test_one_word(self):
        assert fkgl("Go") == pytest.approx(0.39 + 11.8 - 15.59, abs=1e-9)

    def test_fifteen_words_per_sentence(self):
        # 30 tokens over 2 sentences (terminal periods count as tokens),
        # 45 syllables: 15 w/s and 1.5 syll/w.
        first = " ".join(["hello"] * 9 + ["go"] * 5) + " ."
        second = " ".join(["hello"] * 8 + ["go"] * 6) + " ."
        assert fkgl(f"{first} {second}") == pytest.approx(
            0.39 * 15 + 11.8 * 1.5 - 15.59, abs=1e-9
        )

    def test_increases_with_sentence_length(self):
        short = "go go go go go. go go go go go."
        long = "go go go go go go go go go go."
        assert fkgl(long) > fkgl(short)

    def test_empty_text_is_an_error(self):
        with pytest.raises(ValueError, match="undefined readability"):
            fkgl("")

    def test_corpus_level_pools_counts(self):
        items = ["Go now.", "The hello table."]
        pooled = corpus_fkgl(items)
        joined = fkgl(" ".join(items))
        assert pooled == pytest.approx(joined, abs=1e-9)

    def test_punctuation_counts_as_grade_level_tokens(self):
        # "go ." is two tokens, one syllable: 0.39*2 + 11.8*0.5 - 15.59
        assert fkgl("Go.") == pytest.approx(0.39 * 2 + 11.8 * 0.5 - 15.59, abs=1e-9)


class TestSentenceBleu:
    def test_identical_is_100(self):
        text = "The quick brown fox jumps over the lazy dog."
        assert sentence_bleu(text, [text]) == pytest.approx(100.0, abs=1e-6)

    def test_empty_hypothesis_is_zero(self):
        assert sentence_bleu("", ["something here"]) == 0.0

    def test_exact_match_shorter_than_the_order_is_100(self):
        # Three orders count, and their mean log precision is log(100) up to rounding.
        assert sentence_bleu("a b c", ["a b c"]) == pytest.approx(100.0, abs=1e-9)

    def test_empty_reference_list_is_an_error(self):
        with pytest.raises(ValueError, match="reference"):
            sentence_bleu("hello", [])

    @pytest.mark.parametrize("max_order", [0, -1])
    def test_max_order_below_one_is_an_error(self, max_order):
        with pytest.raises(ValueError, match="max_order must be >= 1"):
            sentence_bleu("the cat", ["the cat"], max_order=max_order)

    def test_long_disjoint_sentences_score_near_zero(self):
        hyp = " ".join(f"alpha{i}" for i in range(25))
        ref = " ".join(f"omega{i}" for i in range(25))
        assert sentence_bleu(hyp, [ref]) < 1.0

    def test_matches_reference_scorer(self, metric_fixture, metric_expected):
        for item, expected in zip(metric_fixture[:10], metric_expected["sentence_bleu_first10"]):
            score = sentence_bleu(item["hypothesis"], item["references"])
            assert score == pytest.approx(expected, abs=1e-9)

    def test_reference_order_invariance(self, metric_fixture):
        item = metric_fixture[5]
        refs = item["references"]
        assert sentence_bleu(item["hypothesis"], refs) == pytest.approx(
            sentence_bleu(item["hypothesis"], list(reversed(refs))), abs=1e-12
        )

    def test_duplicate_reference_invariance(self, metric_fixture):
        item = metric_fixture[6]
        refs = item["references"]
        with_dup = refs + [refs[0]]
        assert sentence_bleu(item["hypothesis"], refs) == pytest.approx(
            sentence_bleu(item["hypothesis"], with_dup), abs=1e-12
        )

    @given(st.lists(st.sampled_from("a b c d e f".split()), min_size=1, max_size=12))
    @settings(max_examples=100)
    def test_score_in_range(self, tokens):
        score = sentence_bleu(" ".join(tokens), ["a b c d", "b c"])
        assert 0.0 <= score <= 100.0 + 1e-9


class TestCorpusBleu:
    def test_all_equal_is_100(self):
        hyps = ["The cat sat down.", "A dog ran away quickly."]
        assert corpus_bleu(hyps, [[h] for h in hyps]) == pytest.approx(100.0, abs=1e-6)

    def test_exact_match_shorter_than_the_order_is_zero(self):
        assert corpus_bleu(["a b c"], [["a b c"]]) == 0.0

    def test_length_mismatch_is_an_error(self):
        with pytest.raises(ValueError, match="mismatch"):
            corpus_bleu(["a"], [["a"], ["b"]])

    def test_empty_reference_set_is_an_error(self):
        with pytest.raises(ValueError, match="reference"):
            corpus_bleu(["a"], [[]])

    @pytest.mark.parametrize("max_order", [0, -1])
    def test_max_order_below_one_is_an_error(self, max_order):
        with pytest.raises(ValueError, match="max_order must be >= 1"):
            corpus_bleu(["the cat"], [["the cat"]], max_order=max_order)

    def test_matches_reference_scorer(self, metric_fixture, metric_expected):
        hyps = [it["hypothesis"] for it in metric_fixture]
        refs = [it["references"] for it in metric_fixture]
        assert corpus_bleu(hyps, refs) == pytest.approx(metric_expected["corpus_bleu"], abs=1e-9)

    def test_pools_statistics_not_scores(self):
        # One perfect and one hopeless item: pooling differs from averaging.
        hyps = ["the cat sat on the mat today", "zzz"]
        refs = [["the cat sat on the mat today"], ["an entirely different idea"]]
        pooled = corpus_bleu(hyps, refs)
        mean_of_sentences = sum(sentence_bleu(h, r) for h, r in zip(hyps, refs)) / 2
        assert pooled != pytest.approx(mean_of_sentences, abs=1.0)


class TestSari:
    def test_perfect_rewrite_scores_100(self):
        # Needs shared, deleted, and added n-grams at every order 1..4.
        src = ["the quick brown fox jumps over the lazy dog and sleeps today"]
        hyp = ["the quick brown fox rests over the lazy dog now"]
        refs = [[hyp[0], hyp[0]]]
        breakdown = sari(src, hyp, refs)
        assert breakdown.sari == pytest.approx(100.0, abs=1e-9)
        assert breakdown.f_keep == pytest.approx(100.0, abs=1e-9)
        assert breakdown.f_add == pytest.approx(100.0, abs=1e-9)
        assert breakdown.f_delete == pytest.approx(100.0, abs=1e-9)

    def test_components_in_range_and_mean_identity(self, metric_fixture):
        items = metric_fixture[:30]
        breakdown = sari(
            [i["source"] for i in items],
            [i["hypothesis"] for i in items],
            [i["references"] for i in items],
        )
        for value in (breakdown.sari, breakdown.f_keep, breakdown.f_add, breakdown.f_delete):
            assert 0.0 <= value <= 100.0
        mean = (breakdown.f_keep + breakdown.f_add + breakdown.f_delete) / 3
        assert breakdown.sari == pytest.approx(mean, abs=1e-9)

    def test_matches_reference_scorer(self, metric_fixture, metric_expected):
        breakdown = sari(
            [i["source"] for i in metric_fixture],
            [i["hypothesis"] for i in metric_fixture],
            [i["references"] for i in metric_fixture],
        )
        assert breakdown.sari == pytest.approx(metric_expected["corpus_sari"], abs=1e-9)

    def test_reference_order_invariance(self, metric_fixture):
        items = metric_fixture[:10]
        srcs = [i["source"] for i in items]
        hyps = [i["hypothesis"] for i in items]
        forward = sari(srcs, hyps, [i["references"] for i in items])
        backward = sari(srcs, hyps, [list(reversed(i["references"])) for i in items])
        assert forward.sari == pytest.approx(backward.sari, abs=1e-12)

    def test_length_mismatch_is_an_error(self):
        with pytest.raises(ValueError, match="aligned"):
            sari(["a"], ["a", "b"], [["a"], ["b"]])

    def test_empty_reference_set_is_an_error(self):
        with pytest.raises(ValueError, match="reference"):
            sari(["a"], ["a"], [[]])

    @pytest.mark.parametrize("max_order", [0, -1])
    def test_max_order_below_one_is_an_error(self, max_order):
        with pytest.raises(ValueError, match="max_order must be >= 1"):
            sari(["the cat sat"], ["the cat"], [["the cat"]], max_order=max_order)

    def test_lowercases_before_comparing(self):
        upper = sari(["The Cat"], ["THE CAT"], [["the cat"]])
        lower = sari(["the cat"], ["the cat"], [["the cat"]])
        assert upper.f_keep == pytest.approx(lower.f_keep, abs=1e-12)


class TestEvaluate:
    def test_report_fields_and_json(self):
        report = evaluate(
            ["the big cat sat"], ["the cat sat"], [["the cat sat"]], EN
        )
        payload = report.to_dict()
        # README's key order; the SARI fields come flat, without the n-gram order.
        assert list(payload) == [
            "sari", "f_keep", "f_add", "f_delete", "fkgl", "fres", "bleu", "n_items",
        ]
        assert "max_ngram_order" not in payload
        breakdown = report.sari
        assert payload["sari"] == breakdown.sari
        assert payload["f_keep"] == breakdown.f_keep
        assert payload["f_add"] == breakdown.f_add
        assert payload["f_delete"] == breakdown.f_delete
        assert payload["fkgl"] == report.fkgl
        assert payload["fres"] == report.fres
        assert payload["bleu"] == report.bleu
        assert payload["n_items"] == report.n_items == 1
        json.dumps(payload)  # must be serializable as-is

    def test_identical_triple_gives_bleu_100(self):
        text = "the cat sat on the mat."
        report = evaluate([text], [text], [[text]], EN)
        assert report.bleu == pytest.approx(100.0, abs=1e-6)

    def test_empty_input_is_an_error(self):
        with pytest.raises(ValueError, match="empty"):
            evaluate([], [], [], EN)

    def test_report_is_frozen(self):
        report = evaluate(["a b"], ["a b"], [["a b"]], EN)
        assert isinstance(report, EvalReport)
        with pytest.raises(AttributeError):
            report.bleu = 0.0


@pytest.fixture
def tokenized(monkeypatch):
    """Every text the metrics module passes to ``metric_tokens``, with its number of calls."""
    calls: Counter = Counter()
    original = metrics.metric_tokens

    def counted(text):
        calls[text] += 1
        return original(text)

    monkeypatch.setattr(metrics, "metric_tokens", counted)
    return calls


# Hypotheses equal to their source or to a reference, references equal to
# the source or to each other, and strings that differ only in case.
_REPEATS = [
    ("The cat sat.", "The cat sat.", ["the cat sat .", "The cat sat.", "the cat sat .", "A cat."]),
    ("A dog ran far.", "A dog ran.", ["A dog ran.", "a dog ran.", "A dog ran."]),
    ("ΑΣ:Β", "ΑΣ:Β", ["ασ:β"]),
    ("", "", [""]),
]
_EVAL_DATA = Path(__file__).resolve().parent.parent / "data" / "eval"


def _lowered_texts(items) -> Counter:
    """One lowercased text per distinct string of each item."""
    return Counter(
        text.lower()
        for source, hypothesis, refs in items
        for text in {source, hypothesis, *refs}
    )


def _cased_texts(items) -> Counter:
    """One cased text per distinct hypothesis or reference string of each item."""
    return Counter(text for _, hypothesis, refs in items for text in {hypothesis, *refs})


def _item_sets(metric_fixture):
    fixture = [(i["source"], i["hypothesis"], i["references"]) for i in metric_fixture]
    sources, references = read_eval_dataset(_EVAL_DATA / "turkcorpus")
    turk = list(zip(sources, sources, references))
    return {"repeats": _REPEATS, "fixture": fixture, "turkcorpus": turk}


class TestOneTokenizationPerCasing:
    def test_evaluate_tokenizes_each_distinct_string_once_per_casing(
        self, tokenized, metric_fixture
    ):
        for name, items in _item_sets(metric_fixture).items():
            tokenized.clear()
            sources, hypotheses, references = (list(column) for column in zip(*items))
            evaluate(sources, hypotheses, references, EN)
            # SARI, then the grade level's own lowercased hypothesis, then BLEU.
            grade_level = Counter(hypothesis.lower() for hypothesis in hypotheses)
            assert tokenized == _lowered_texts(items) + grade_level + _cased_texts(items), name

    def test_corpus_bleu_tokenizes_each_distinct_cased_string_once(
        self, tokenized, metric_fixture
    ):
        for name, items in _item_sets(metric_fixture).items():
            tokenized.clear()
            corpus_bleu([hypothesis for _, hypothesis, _ in items], [refs for *_, refs in items])
            assert tokenized == _cased_texts(items), name

    def test_sentence_bleu_tokenizes_each_distinct_cased_string_once(
        self, tokenized, metric_fixture
    ):
        for name, items in _item_sets(metric_fixture).items():
            for item in items:
                _, hypothesis, refs = item
                tokenized.clear()
                sentence_bleu(hypothesis, refs)
                assert tokenized == _cased_texts([item]), (name, item)

    def test_sari_tokenizes_each_distinct_string_once(self, tokenized, metric_fixture):
        for name, items in _item_sets(metric_fixture).items():
            tokenized.clear()
            sari(*(list(column) for column in zip(*items)))
            assert tokenized == _lowered_texts(items), name

    def test_reading_ease_counts_each_hypothesis_once(self, monkeypatch):
        hypotheses = [hypothesis for _, hypothesis, _ in _REPEATS]
        seen = []
        original = metrics.text_stats

        def counted(text, profile):
            seen.append(text)
            return original(text, profile)

        monkeypatch.setattr(metrics, "text_stats", counted)
        sources, _, references = (list(column) for column in zip(*_REPEATS))
        evaluate(sources, hypotheses, references, EN)
        assert seen == hypotheses



@pytest.fixture
def bleu_matched(monkeypatch):
    """The hypothesis tokens of each BLEU item that went through n-gram matching, in call order."""
    matched: list[list[str]] = []
    clipped_matches = metrics._clipped_matches

    def recorded(hyp, *args):
        matched.append(hyp)
        return clipped_matches(hyp, *args)

    monkeypatch.setattr(metrics, "_clipped_matches", recorded)
    return matched


class TestNoCounterForSelfReference:
    """A BLEU hypothesis whose tokens equal a reference's is scored without n-gram matching."""

    def test_reference_hypotheses_build_no_bleu_counter(self, bleu_matched):
        sources, references = read_eval_dataset(_EVAL_DATA / "turkcorpus")
        evaluate(sources, [refs[0] for refs in references], references, EN)
        assert bleu_matched == []

    def test_sources_among_their_references_build_no_bleu_counter(self, bleu_matched):
        sources, references = read_eval_dataset(_EVAL_DATA / "turkcorpus")
        evaluate(sources, sources, references, EN)
        own = [i for i, (source, refs) in enumerate(zip(sources, references)) if source in refs]
        assert len(own) == 249
        # 14 more sources differ from a reference in text but not in tokens.
        respaced = [
            i for i, (source, refs) in enumerate(zip(sources, references))
            if i not in own and metric_tokens(source) in map(metric_tokens, refs)
        ]
        assert len(respaced) == 14
        # Every other item, and only those, goes through the matching, in item order.
        skipped = set(own + respaced)
        expected = [metric_tokens(s) for i, s in enumerate(sources) if i not in skipped]
        assert bleu_matched == expected
        assert len(bleu_matched) == len(sources) - 249 - 14
