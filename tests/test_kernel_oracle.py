"""Differential tests: the scoring kernel against the regex kernel it replaced.

``kernel_oracle`` keeps the one-regex-per-rule 13a tokenizer, the per-gram
BLEU statistics, the ``(word, profile)``-keyed syllable count, the
per-order SARI counters and the one-pass-per-metric ``evaluate``. Tokens,
BLEU and SARI scores, text statistics and evaluation reports must be exactly
equal, not approximately.
"""

from __future__ import annotations

import itertools
import string
from dataclasses import astuple
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kernel_oracle as oracle
from synth import make_aligned_streams

from sscorpus.ingest import read_eval_dataset
from sscorpus.metrics import (
    _FKGL_SPECIAL_WORDS,
    _fkgl_syllables,
    _order_counts,
    _pair_bleu,
    _token_bleu,
    corpus_bleu,
    corpus_fkgl,
    corpus_fres,
    evaluate,
    sari,
    sentence_bleu,
)
from sscorpus.textprep import (
    _13A_DIGIT_FREE_TABLE,
    _13A_PUNCT_TABLE,
    PROFILES,
    metric_tokens,
    split_sentences,
    text_stats,
)

# Pieces the 13a rules treat specially, so generated text meets every rule
# and the boundaries between them.
_SPECIAL = [
    ".", ",", "-", "-\n", "\n", " ", "  ", "\t", "'", "’", "…",
    "&quot;", "&amp;", "&lt;", "&gt;", "&amp;lt;", "<skipped>", "&lt;skipped>",
    "0", "7", "3.5", "1,000", "10-20", "-5", "a.b", "U.S.", "e.g.,",
]
# Words whose syllables the profiles' rules count differently.
_WORDS = [
    "word", "Tierra", "oiseau", "fenêtre", "cake", "state-of-the-art", "he's",
    "día", "país", "leer", "rhythm", "mp3", "BE", "Straße", "東京",
]
# The printable ASCII characters that are neither letters nor digits. They are
# sampled from a list: filtering st.characters() would reject two draws in three.
_ASCII_PUNCT_CHARS = list(string.punctuation)
assert set(_ASCII_PUNCT_CHARS) == {chr(c) for c in range(0x21, 0x7F) if not chr(c).isalnum()}
_ASCII_PUNCT = st.sampled_from(_ASCII_PUNCT_CHARS)
_PIECE = st.one_of(
    st.sampled_from(_SPECIAL),
    _ASCII_PUNCT,
    st.characters(min_codepoint=ord("0"), max_codepoint=ord("9")),
    st.sampled_from(_WORDS),
    st.characters(),
)
TEXT = st.lists(_PIECE, max_size=40).map("".join)

# Text without an ASCII digit, on which the 13a period/comma rules and the
# sentence count take their fast paths. ``TEXT`` draws such text too, but
# rarely long; these pieces meet every rule that can still fire.
_DIGITS = "0123456789"
_UNICODE_SPACES = [chr(code) for code in range(0x3001) if chr(code).isspace()]
_DIGIT_FREE_PIECE = st.one_of(
    st.sampled_from([piece for piece in _SPECIAL + _WORDS if not set(piece) & set(_DIGITS)]),
    _ASCII_PUNCT,
    st.sampled_from(_UNICODE_SPACES + ["…", "\x00", "..", ",,", ".,", "?!", "&amp;quot;"]),
    st.characters(exclude_characters=_DIGITS),
)
DIGIT_FREE_TEXT = st.lists(_DIGIT_FREE_PIECE, min_size=5, max_size=60).map("".join)

# Sentences over a small vocabulary, so hypotheses and references share
# n-grams of every order.
_WORD = st.sampled_from(["the", "cat", "sat", "on", "a", "mat", ".", ",", "1", "-", "it"])
_SENTENCE = st.lists(_WORD, max_size=12).map(" ".join)
_REFERENCES = st.lists(_SENTENCE, min_size=1, max_size=5)


@given(TEXT)
@settings(max_examples=1500)
def test_metric_tokens_match_regex_tokenizer(text):
    assert metric_tokens(text) == oracle.metric_tokens(text)


@given(st.text(max_size=200))
@settings(max_examples=500)
def test_metric_tokens_match_on_any_text(text):
    assert metric_tokens(text) == oracle.metric_tokens(text)


@given(DIGIT_FREE_TEXT)
@settings(max_examples=1500)
def test_metric_tokens_match_on_digit_free_text(text):
    assert not set(text) & set(_DIGITS)
    assert metric_tokens(text) == oracle.metric_tokens(text)


@given(st.one_of(TEXT, DIGIT_FREE_TEXT))
@settings(max_examples=1500)
def test_split_sentences_match_segment_count(text):
    assert split_sentences(text) == oracle.split_sentences(text)


def test_metric_tokens_match_on_synthetic_corpus():
    targets, translations = make_aligned_streams(2000, seed=3)
    for text in targets + translations:
        assert metric_tokens(text) == oracle.metric_tokens(text), text
        lowered = text.lower()
        assert metric_tokens(lowered) == oracle.metric_tokens(lowered), lowered


# Every ASCII code, the first code past it, and characters no translate table
# has an entry for: a no-break space, a curly apostrophe, an ideographic space
# and a lone surrogate. The strategies above rarely reach every ASCII code.
_TABLE_CHARS = [chr(code) for code in range(129)] + ["\u00a0", "\u2019", "\u3000", "\ud800"]


# Alone, between letters, between digits, before a period, and between a
# letter and a digit before a comma: digit-free text and the digit rules.
@pytest.mark.parametrize("context", ["{}", "a{}b", "1{}2", "{}.", "x{}5,"])
def test_metric_tokens_match_for_every_ascii_code(context):
    for char in _TABLE_CHARS:
        for text in (context.format(char), context.format(char).lower()):
            assert metric_tokens(text) == oracle.metric_tokens(text), repr(text)


# The three digit rules run only on text with a "." or "," right before an ASCII
# digit, or a digit right before "-"; elsewhere the digit-free table pads every
# "." and ",". That is exact: every boundary the rules insert sits beside a "." or
# ",", or beside a "-" that follows a digit. Rule 1 always separates two adjacent
# "."/"," characters, so rule 2 then isolates every "."/"," that no digit follows,
# which is what the digit-free table does. Every string of up to six of these
# characters (55,986 strings) meets each half of the context check: a check
# without its dash half fails on "5-", one without its period half on "5.5", and
# one narrowed to a period after a digit on "..5".
def test_metric_tokens_match_on_every_short_string_of_digit_rule_characters():
    for length in range(1, 7):
        for chars in itertools.product("a5.,- ", repeat=length):
            text = "".join(chars)
            assert metric_tokens(text) == oracle.metric_tokens(text), repr(text)


# A code missing from a table changes no token, only the speed: translate then
# raises and clears a lookup error for it. So only this test notices a lost entry.
@pytest.mark.parametrize("table", [_13A_PUNCT_TABLE, _13A_DIGIT_FREE_TABLE])
def test_translate_tables_map_every_ascii_code(table):
    assert len(table) == 128
    for code in range(128):
        assert table[code] in (chr(code), f" {chr(code)} "), code


@given(_SENTENCE, _SENTENCE)
@settings(max_examples=500)
def test_sentence_bleu_one_reference(hypothesis, reference):
    assert sentence_bleu(hypothesis, [reference]) == oracle.sentence_bleu(hypothesis, [reference])


@given(_SENTENCE, _REFERENCES)
@settings(max_examples=500)
def test_sentence_bleu_several_references(hypothesis, references):
    assert sentence_bleu(hypothesis, references) == oracle.sentence_bleu(hypothesis, references)


@given(TEXT, st.lists(TEXT, min_size=1, max_size=3))
@settings(max_examples=300)
def test_sentence_bleu_on_any_text(hypothesis, references):
    assert sentence_bleu(hypothesis, references) == oracle.sentence_bleu(hypothesis, references)


def test_sentence_bleu_empty_and_short_hypotheses():
    references = ["the cat sat on the mat .", "a cat sat ."]
    for hypothesis in ["", "the", "the cat", "cat sat .", "."]:
        for refs in (references[:1], references, [""]):
            assert sentence_bleu(hypothesis, refs) == oracle.sentence_bleu(hypothesis, refs)


@given(st.lists(st.tuples(_SENTENCE, _REFERENCES), max_size=8))
@settings(max_examples=300)
def test_corpus_bleu(items):
    hypotheses = [hypothesis for hypothesis, _ in items]
    references = [refs for _, refs in items]
    assert corpus_bleu(hypotheses, references) == oracle.corpus_bleu(hypotheses, references)


@given(st.lists(_WORD, max_size=16), st.lists(_WORD, max_size=16), st.integers(1, 5))
@settings(max_examples=500)
def test_order_counts_keys_counts_and_order(tokens, more, max_order):
    """Each order's dict is the oracle's counts of that length, unigrams as bare tokens."""
    got = _order_counts(tokens, max_order)
    expected = oracle._ngram_counts(tokens, max_order)
    for _ in range(2):  # then count a second token list into the same dicts
        assert len(got) == max_order
        for n, counts in enumerate(got, 1):
            want = [(gram[0] if n == 1 else gram, count) for gram, count in expected.items()
                    if len(gram) == n]
            assert list(counts.items()) == want
        _order_counts(more, max_order, got)
        expected += oracle._ngram_counts(more, max_order)


@st.composite
def _self_referenced(draw):
    """(hypothesis, references) with the hypothesis drawn from its own references."""
    references = draw(_REFERENCES)
    return draw(st.sampled_from(references)), references


def _assert_bleu_equal(hypothesis, references, max_order):
    got = sentence_bleu(hypothesis, references, max_order)
    assert got == oracle.sentence_bleu(hypothesis, references, max_order)
    got = corpus_bleu([hypothesis], [references], max_order)
    assert got == oracle.corpus_bleu([hypothesis], [references], max_order)


@given(_self_referenced(), st.integers(1, 5))
@settings(max_examples=500)
def test_bleu_hypothesis_among_its_references(item, max_order):
    _assert_bleu_equal(*item, max_order)


@given(st.lists(_self_referenced(), max_size=8), st.integers(1, 5))
@settings(max_examples=300)
def test_corpus_bleu_hypotheses_among_their_references(items, max_order):
    hypotheses = [hypothesis for hypothesis, _ in items]
    references = [refs for _, refs in items]
    got = corpus_bleu(hypotheses, references, max_order)
    assert got == oracle.corpus_bleu(hypotheses, references, max_order)


@st.composite
def _respaced_reference(draw):
    """(hypothesis, references): one reference has the hypothesis's tokens, spaced differently."""
    words = draw(st.lists(_WORD, min_size=1, max_size=12))
    respaced = "".join(word + draw(st.sampled_from([" ", "  ", "\t", " \n "])) for word in words)
    hypothesis = " ".join(words)
    others = draw(st.lists(_SENTENCE.filter(lambda text: text != hypothesis), max_size=3))
    return hypothesis, draw(st.permutations([respaced, *others]))


@given(_respaced_reference(), st.integers(1, 5))
@example(("the cat .", ["the  cat ."]), 4)
@settings(max_examples=500)
def test_bleu_reference_with_equal_tokens_and_other_text(item, max_order):
    hypothesis, references = item
    assert hypothesis not in references
    assert metric_tokens(hypothesis) in [metric_tokens(ref) for ref in references]
    _assert_bleu_equal(hypothesis, references, max_order)


@pytest.mark.parametrize("max_order", range(1, 6))
def test_bleu_empty_hypothesis_and_reference(max_order):
    _assert_bleu_equal("", [""], max_order)


# Each order that has no hypothesis n-gram, or no match, is an edge of the score's last step.
_BLEU_EDGES = [
    ("", ["a b c"]),  # no order counts
    ("a", ["a"]), ("a", ["b"]),  # one to three tokens: fewer orders count than max_order 4
    ("a b", ["a b"]), ("a b", ["b a"]),
    ("a b c", ["a b c"]), ("a b c", ["c a b"]),
    ("a b c d", ["a b c x d"]),  # only the 4-gram does not match: smoothing
    ("a", ["a b c d e"]), ("a b c", ["a b c d"]),  # brevity penalty
    ("a b x a b", ["a b a b"]),  # a repeated bigram, then no match from order 3 on
    ("a b . c", ["a b  .c"]),  # equal token lists from unequal text
    ("a a a", ["a a"]), ("a a a a", ["a a a"]), ("a b a b", ["a b"]),  # repeated n-grams
    ("a b a b a b", ["b a b a b"]), ("a b c a b c", ["a b c a"]), ("the the the cat", ["cat the"]),
]


@pytest.mark.parametrize("max_order", range(1, 6))
@pytest.mark.parametrize(("hypothesis", "references"), _BLEU_EDGES)
def test_bleu_edge_cases(hypothesis, references, max_order):
    _assert_bleu_equal(hypothesis, references, max_order)


@pytest.mark.parametrize("max_order", range(1, 6))
def test_corpus_bleu_pooled_hypothesis_shorter_than_the_order(max_order):
    hypotheses, references = ["a", "b c"], [["a"], ["b c"]]
    got = corpus_bleu(hypotheses, references, max_order)
    assert got == oracle.corpus_bleu(hypotheses, references, max_order)


@st.composite
def _repeated_references(draw):
    """(hypothesis, references): a reference repeats, and the hypothesis may be one, twice."""
    hypothesis, references = draw(_SENTENCE), draw(_REFERENCES)
    repeated = [*references, draw(st.sampled_from(references))]
    if draw(st.booleans()):
        repeated += [hypothesis, hypothesis]
    return hypothesis, draw(st.permutations(repeated))


@given(st.lists(_repeated_references(), min_size=1, max_size=8), st.integers(1, 5))
@example([("the cat", ["the cat", "a mat", "a mat", "the cat"]), ("a cat", ["a a", "a a"])], 4)
@settings(max_examples=300)
def test_bleu_leaves_out_repeated_references_exactly(items, max_order):
    # The oracle tokenizes and counts every reference, repeats included.
    for hypothesis, references in items:
        _assert_bleu_equal(hypothesis, references, max_order)
    hypotheses = [hypothesis for hypothesis, _ in items]
    references = [refs for _, refs in items]
    got = corpus_bleu(hypotheses, references, max_order)
    assert got == oracle.corpus_bleu(hypotheses, references, max_order)


@st.composite
def _repeating_ngrams(draw):
    """(hypothesis, references) over two or three words, so the hypothesis repeats n-grams of
    every order and each n-gram's largest count sits in a different reference."""
    word = st.sampled_from(draw(st.sampled_from([["a", "b"], ["a", "b", "c"]])))
    hypothesis = " ".join(draw(st.lists(word, min_size=1, max_size=16)))
    references = draw(st.lists(st.lists(word, max_size=12).map(" ".join), min_size=2, max_size=10))
    return hypothesis, references


@given(st.lists(_repeating_ngrams(), min_size=1, max_size=6), st.integers(1, 5))
@example([("a a a", ["a", "a a"])], 1)  # 2 unigrams match, not 3 and not 1
@example([("a a a a", ["a a", "a a a", "b a"])], 2)  # the counts of one reference, not their sum
@example([("a b a b a b", ["a b a", "b a b a b", "a a b b"])], 4)
@example([("a a b b a a b b", ["a a a", "b b", "a b b a a b", "c"]), ("c c c", ["c", "c c"])], 3)
@settings(max_examples=300)
def test_bleu_clips_repeated_ngrams_to_one_reference(items, max_order):
    for hypothesis, references in items:
        _assert_bleu_equal(hypothesis, references, max_order)
    hypotheses = [hypothesis for hypothesis, _ in items]
    references = [refs for _, refs in items]
    got = corpus_bleu(hypotheses, references, max_order)
    assert got == oracle.corpus_bleu(hypotheses, references, max_order)


def _assert_pair_bleu_equal(hypothesis, reference, max_order):
    got = _pair_bleu(metric_tokens(hypothesis), metric_tokens(reference), max_order)
    assert got == oracle.sentence_bleu(hypothesis, [reference], max_order)


# ``sentence_bleu`` calls ``_pair_bleu`` for one distinct reference, so the BLEU tests above
# check it too; these call it directly.
@given(_SENTENCE, _SENTENCE, st.integers(1, 5))
@example("", "", 1)  # an empty hypothesis and reference
@example("the cat sat", "the cat sat", 5)  # equal token lists
@example("the cat", "the cat sat on the mat", 4)  # shorter than the order
@example("the the the cat", "cat the the", 2)  # repeated n-grams
@settings(max_examples=1000)
def test_pair_bleu_on_small_vocabulary(hypothesis, reference, max_order):
    _assert_pair_bleu_equal(hypothesis, reference, max_order)


@given(TEXT, TEXT, st.integers(1, 5))
@settings(max_examples=500)
def test_pair_bleu_on_any_text(hypothesis, reference, max_order):
    _assert_pair_bleu_equal(hypothesis, reference, max_order)


def test_pair_bleu_matches_the_corpus_kernel_on_synthetic_pairs():
    # The builder's pairs: each translation scored against its own target.
    targets, translations = make_aligned_streams(8000, seed=109)
    for target, translation in zip(targets, translations):
        hyp, ref = metric_tokens(translation), metric_tokens(target)
        assert _pair_bleu(hyp, ref) == _token_bleu([(hyp, [ref])], 4, True), (target, translation)


# Words that meet the syllable patterns: vowel runs, a final e, the add and subtract rules.
_FKGL_WORD = st.lists(
    st.sampled_from(["a", "e", "i", "o", "u", "y", "b", "l", "n", "q", "g", "c", "s", "t", "m", "d"]),
    max_size=12,
).map("".join)


@given(st.one_of(_FKGL_WORD, st.sampled_from(sorted(_FKGL_SPECIAL_WORDS)), st.text(max_size=20)))
@example("Queue ")
@example("coaxial")
@settings(max_examples=2000)
def test_fkgl_syllables_match_the_character_loop(token):
    assert _fkgl_syllables(token) == oracle._fkgl_syllables(token)


def test_fkgl_syllables_match_on_the_eval_sets():
    for name in ("turkcorpus", "asset"):
        sources, references = read_eval_dataset(_EVAL_DATA / name)
        for text in [*sources, *(ref for refs in references for ref in refs)]:
            for token in metric_tokens(text.lower()):
                assert _fkgl_syllables(token) == oracle._fkgl_syllables(token), token


@given(TEXT)
@settings(max_examples=500)
def test_text_stats_every_profile(text):
    for profile in PROFILES.values():
        assert text_stats(text, profile) == oracle.text_stats(text, profile), profile.lang_code


@given(DIGIT_FREE_TEXT)
@settings(max_examples=500)
def test_text_stats_every_profile_on_digit_free_text(text):
    for profile in PROFILES.values():
        assert text_stats(text, profile) == oracle.text_stats(text, profile), profile.lang_code


# SARI lowercases, so the vocabulary mixes cases of the same words; digits
# and punctuation meet the 13a rules. Of the last five, the first three
# tokenize differently when lowercased before rather than after the 13a
# rules; "İ" lowercases to two code points and the Kelvin sign to "k".
_MIXED_SENTENCE = st.lists(
    st.sampled_from(
        ["The", "the", "THE", "cat", "Cat", "sat", "on", "a", "A", "mat", "it",
         ".", ",", "!", "?", "-", "1", "3.5", "10-20", "'s",
         "ΑΣ:Β", "<SKIPPED>", "&QUOT;", "İ", "\u212a"]
    ),
    max_size=10,
).map(" ".join)


@st.composite
def _sari_item(draw):
    """(source, hypothesis, 1-6 references); references may repeat or equal the source."""
    source = draw(_MIXED_SENTENCE)
    hypothesis = draw(st.one_of(_MIXED_SENTENCE, st.just(source)))
    references: list[str] = []
    for _ in range(draw(st.integers(1, 6))):
        pool = [source, *references]
        references.append(draw(st.one_of(_MIXED_SENTENCE, st.sampled_from(pool))))
    return source, hypothesis, references


def _assert_sari_equal(sources, hypotheses, references, max_order=4):
    got = sari(sources, hypotheses, references, max_order)
    want = oracle.sari(sources, hypotheses, references, max_order)
    assert astuple(got) == astuple(want)


@given(_sari_item(), st.integers(1, 5))
@settings(max_examples=1000)
def test_sari_sentence(item, max_order):
    source, hypothesis, references = item
    _assert_sari_equal([source], [hypothesis], [references], max_order)


@given(st.lists(_sari_item(), min_size=1, max_size=6), st.integers(1, 5))
@settings(max_examples=200)
def test_sari_corpus(items, max_order):
    sources, hypotheses, references = (list(column) for column in zip(*items))
    _assert_sari_equal(sources, hypotheses, references, max_order)


def test_sari_empty_sides():
    for source, hypothesis, references in [
        ("", "", [""]),
        ("", "The cat sat .", ["the cat sat ."]),
        ("The cat sat .", "", ["the cat sat .", "A cat ."]),
        ("The cat sat .", "the cat", ["", ""]),
    ]:
        for max_order in range(1, 6):
            _assert_sari_equal([source], [hypothesis], [references], max_order)


_EVAL_DATA = Path(__file__).resolve().parent.parent / "data" / "eval"


@pytest.mark.parametrize("name", ["turkcorpus", "asset"])
def test_metric_tokens_match_on_shipped_eval_sets(name):
    """Every distinct source and reference string, cased for BLEU and lowercased for SARI."""
    sources, references = read_eval_dataset(_EVAL_DATA / name)
    for text in set(sources).union(*references):
        for variant in (text, text.lower()):
            assert metric_tokens(variant) == oracle.metric_tokens(variant), repr(variant)


@pytest.mark.parametrize("name", ["turkcorpus", "asset"])
def test_sari_and_corpus_bleu_on_shipped_eval_sets(name):
    sources, references = read_eval_dataset(_EVAL_DATA / name)
    first_references = [refs[0] for refs in references]
    for hypotheses in (sources, first_references):
        _assert_sari_equal(sources, hypotheses, references)
        assert corpus_bleu(hypotheses, references) == oracle.corpus_bleu(hypotheses, references)


def test_sari_and_corpus_bleu_on_fixture(metric_fixture):
    sources = [item["source"] for item in metric_fixture]
    hypotheses = [item["hypothesis"] for item in metric_fixture]
    references = [item["references"] for item in metric_fixture]
    _assert_sari_equal(sources, hypotheses, references)
    assert corpus_bleu(hypotheses, references) == oracle.corpus_bleu(hypotheses, references)


def _outcome(fn, *args):
    """The value of ``fn(*args)``, or the type and message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return ValueError, str(exc)


@given(st.lists(TEXT, max_size=6), st.sampled_from(sorted(PROFILES)))
@settings(max_examples=300)
def test_corpus_readability(texts, lang):
    profile = PROFILES[lang]
    assert _outcome(corpus_fkgl, texts) == _outcome(oracle.corpus_fkgl, texts)
    assert _outcome(corpus_fres, texts, profile) == _outcome(oracle.corpus_fres, texts, profile)


@given(st.lists(_sari_item(), min_size=1, max_size=6), st.sampled_from(sorted(PROFILES)))
@settings(max_examples=300)
def test_evaluate(items, lang):
    sources, hypotheses, references = (list(column) for column in zip(*items))
    args = (sources, hypotheses, references, PROFILES[lang])
    assert _outcome(evaluate, *args) == _outcome(oracle.evaluate, *args)


def test_evaluate_input_errors():
    profile = PROFILES["en"]
    for args in [
        ([], [], []),
        (["a"], ["a", "b"], [["a"]]),
        (["a", "b"], ["a", "b"], [["a"], []]),
        ([""], [""], [["a"]]),  # no words for either readability score
        (["."], ["."], [["a"]]),  # a grade-level word, but no reading-ease word
    ]:
        assert _outcome(evaluate, *args, profile) == _outcome(oracle.evaluate, *args, profile)


@pytest.mark.parametrize("name", ["turkcorpus", "asset"])
def test_evaluate_on_shipped_eval_sets(name):
    sources, references = read_eval_dataset(_EVAL_DATA / name)
    first_references = [refs[0] for refs in references]
    for hypotheses in (sources, first_references):
        report = evaluate(sources, hypotheses, references, PROFILES["en"])
        assert report == oracle.evaluate(sources, hypotheses, references, PROFILES["en"])


def test_evaluate_on_fixture(metric_fixture):
    sources = [item["source"] for item in metric_fixture]
    hypotheses = [item["hypothesis"] for item in metric_fixture]
    references = [item["references"] for item in metric_fixture]
    for profile in PROFILES.values():
        report = evaluate(sources, hypotheses, references, profile)
        assert report == oracle.evaluate(sources, hypotheses, references, profile)
