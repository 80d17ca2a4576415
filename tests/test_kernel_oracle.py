"""Differential tests: the scoring kernel against the regex kernel it replaced.

``kernel_oracle`` keeps the one-regex-per-rule 13a tokenizer, the per-gram
BLEU statistics and the ``(word, profile)``-keyed syllable count. Tokens,
BLEU scores and text statistics must be exactly equal, not approximately.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

import kernel_oracle as oracle
from synth import make_aligned_streams

from sscorpus.metrics import corpus_bleu, sentence_bleu
from sscorpus.textprep import PROFILES, metric_tokens, text_stats

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
_ASCII_PUNCT = st.characters(min_codepoint=0x21, max_codepoint=0x7E).filter(
    lambda ch: not ch.isalnum()
)
_PIECE = st.one_of(
    st.sampled_from(_SPECIAL),
    _ASCII_PUNCT,
    st.characters(min_codepoint=ord("0"), max_codepoint=ord("9")),
    st.sampled_from(_WORDS),
    st.characters(),
)
TEXT = st.lists(_PIECE, max_size=40).map("".join)

# Sentences over a small vocabulary, so hypotheses and references share
# n-grams of every order.
_SENTENCE = st.lists(
    st.sampled_from(["the", "cat", "sat", "on", "a", "mat", ".", ",", "1", "-", "it"]),
    max_size=12,
).map(" ".join)
_REFERENCES = st.lists(_SENTENCE, min_size=1, max_size=5)


@given(TEXT)
@settings(max_examples=1500)
def test_metric_tokens_match_regex_tokenizer(text):
    assert metric_tokens(text) == oracle.metric_tokens(text)


@given(st.text(max_size=200))
@settings(max_examples=500)
def test_metric_tokens_match_on_any_text(text):
    assert metric_tokens(text) == oracle.metric_tokens(text)


def test_metric_tokens_match_on_synthetic_corpus():
    targets, translations = make_aligned_streams(2000, seed=3)
    for text in targets + translations:
        assert metric_tokens(text) == oracle.metric_tokens(text), text
        lowered = text.lower()
        assert metric_tokens(lowered) == oracle.metric_tokens(lowered), lowered


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


@given(TEXT)
@settings(max_examples=500)
def test_text_stats_every_profile(text):
    for profile in PROFILES.values():
        assert text_stats(text, profile) == oracle.text_stats(text, profile), profile.lang_code

