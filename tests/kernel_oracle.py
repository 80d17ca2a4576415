"""The regex scoring kernel, kept as a test oracle.

``metric_tokens`` (one regex pass per 13a rule, with ``\\1``-style
templates), the per-gram BLEU statistics, the ``(word, profile)``-keyed
syllable count behind ``text_stats``, and the re-tokenizing corpus
statistics are copied unchanged (``tokenize_words`` inlined) from the
implementation that the translate-table tokenizer, the zip n-gram counts,
the per-profile syllable cache and the incremental stats accumulator
replaced. ``sentence_bleu`` and ``corpus_bleu`` assemble them the way the
metrics module used to, so the differential tests can compare exact values.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from functools import lru_cache
from typing import Sequence

from sscorpus.pipeline import CorpusStats
from sscorpus.textprep import LanguageProfile, TextStats, split_sentences

MAX_NGRAM_ORDER = 4

# --- metric-grade tokenization (mteval-v13a compatible) ---

# Punctuation split rules; ',' '.' and digits are excluded from the class and
# handled by the digit-aware rules below.
_13A_PUNCT = re.compile(r"([\{-\~\[-\` -\&\(-\+\:-\@\/])")
_13A_PERIOD_AFTER = re.compile(r"([^0-9])([\.,])")
_13A_PERIOD_BEFORE = re.compile(r"([\.,])([^0-9])")
_13A_DIGIT_DASH = re.compile(r"([0-9])(-)")


def metric_tokens(text: str) -> list[str]:
    if not text:
        return []
    norm = (
        text.replace("<skipped>", "")
        .replace("-\n", "")
        .replace("\n", " ")
        .replace("&quot;", '"')
        .replace("&amp;", "&")
        .replace("&lt;", "<")
        .replace("&gt;", ">")
    )
    norm = f" {norm} "
    norm = _13A_PUNCT.sub(r" \1 ", norm)
    norm = _13A_PERIOD_AFTER.sub(r"\1 \2 ", norm)
    norm = _13A_PERIOD_BEFORE.sub(r" \1 \2", norm)
    norm = _13A_DIGIT_DASH.sub(r"\1 \2 ", norm)
    return norm.split()


# --- readability-grade counting ---

_WORD_RE = re.compile(r"[^\W_]+(?:['’\-][^\W_]+)*", re.UNICODE)
_WORD_PART_SPLIT = re.compile(r"['’\-]")


@lru_cache(maxsize=None)
def _vowel_re(vowels: frozenset[str]) -> re.Pattern[str]:
    return re.compile("[{}]+".format("".join(sorted(vowels))))


@lru_cache(maxsize=2**17)
def _word_syllables(word: str, profile: LanguageProfile) -> int:
    total = 0
    vowel_re = _vowel_re(profile.vowels)
    for part in _WORD_PART_SPLIT.split(word):
        clusters = vowel_re.findall(part)
        if not clusters:
            continue
        count = len(clusters)
        if profile.strong_vowels:
            strong = profile.strong_vowels
            for cluster in clusters:
                count += sum(
                    1 for a, b in zip(cluster, cluster[1:]) if a in strong and b in strong
                )
        if (
            profile.silent_final_e
            and count > 1
            and part.endswith("e")
            and (len(part) < 2 or part[-2] not in profile.vowels)
        ):
            count -= 1
        total += count
    return total


def count_syllables(word: str, profile: LanguageProfile) -> int:
    return max(_word_syllables(word.lower(), profile), 1)


def text_stats(text: str, profile: LanguageProfile) -> TextStats:
    words = _WORD_RE.findall(text)
    if not words:
        return TextStats(0, split_sentences(text), 0)
    n_sentences = max(split_sentences(text), 1)
    n_syllables = sum(count_syllables(w, profile) for w in words)
    return TextStats(len(words), n_sentences, n_syllables)


# --- BLEU ---


def _ngram_counts(tokens: Sequence[str], max_order: int) -> Counter:
    counts: Counter = Counter()
    for n in range(1, max_order + 1):
        for i in range(len(tokens) - n + 1):
            counts[tuple(tokens[i : i + n])] += 1
    return counts


def _ref_ngrams_and_closest_len(
    hyp_len: int, refs_tokens: Sequence[Sequence[str]], max_order: int
) -> tuple[Counter, int]:
    merged: Counter = Counter()
    closest_diff = None
    closest_len = 0
    for ref in refs_tokens:
        ref_len = len(ref)
        diff = abs(hyp_len - ref_len)
        if closest_diff is None or diff < closest_diff:
            closest_diff, closest_len = diff, ref_len
        elif diff == closest_diff and ref_len < closest_len:
            closest_len = ref_len
        for gram, count in _ngram_counts(ref, max_order).items():
            if count > merged[gram]:
                merged[gram] = count
    return merged, closest_len


def _accumulate_bleu_stats(
    hyp_tokens: Sequence[str],
    refs_tokens: Sequence[Sequence[str]],
    correct: list[int],
    total: list[int],
    max_order: int,
) -> tuple[int, int]:
    ref_ngrams, closest_len = _ref_ngrams_and_closest_len(len(hyp_tokens), refs_tokens, max_order)
    for gram, count in _ngram_counts(hyp_tokens, max_order).items():
        n = len(gram)
        correct[n - 1] += min(count, ref_ngrams.get(gram, 0))
        total[n - 1] += count
    return len(hyp_tokens), closest_len


def _log(value: float) -> float:
    if value == 0.0:
        return -9999999999.0
    return math.log(value)


def _bleu_score(
    correct: Sequence[int],
    total: Sequence[int],
    sys_len: int,
    ref_len: int,
    max_order: int,
    effective_order: bool,
) -> float:
    precisions = [0.0] * max_order
    smooth = 1.0
    order = max_order
    for n in range(1, max_order + 1):
        if total[n - 1] == 0:
            break
        if effective_order:
            order = n
        if correct[n - 1] == 0:
            smooth *= 2.0
            precisions[n - 1] = 100.0 / (smooth * total[n - 1])
        else:
            precisions[n - 1] = 100.0 * correct[n - 1] / total[n - 1]

    if sys_len < ref_len:
        brevity_penalty = math.exp(1 - ref_len / sys_len) if sys_len > 0 else 0.0
    else:
        brevity_penalty = 1.0
    return brevity_penalty * math.exp(sum(_log(p) for p in precisions[:order]) / order)


def sentence_bleu(hypothesis: str, references: Sequence[str], max_order: int = MAX_NGRAM_ORDER) -> float:
    if not references:
        raise ValueError("at least one reference is required")
    hyp_tokens = metric_tokens(hypothesis)
    refs_tokens = [metric_tokens(r) for r in references]
    correct = [0] * max_order
    total = [0] * max_order
    sys_len, ref_len = _accumulate_bleu_stats(hyp_tokens, refs_tokens, correct, total, max_order)
    return _bleu_score(correct, total, sys_len, ref_len, max_order, effective_order=True)


def corpus_bleu(
    hypotheses: Sequence[str],
    references: Sequence[Sequence[str]],
    max_order: int = MAX_NGRAM_ORDER,
) -> float:
    if len(hypotheses) != len(references):
        raise ValueError(
            f"hypothesis/reference count mismatch: {len(hypotheses)} vs {len(references)}"
        )
    correct = [0] * max_order
    total = [0] * max_order
    sys_len = 0
    ref_len = 0
    for hypothesis, refs in zip(hypotheses, references):
        if not refs:
            raise ValueError("every hypothesis needs at least one reference")
        hyp_tokens = metric_tokens(hypothesis)
        refs_tokens = [metric_tokens(r) for r in refs]
        item_sys, item_ref = _accumulate_bleu_stats(
            hyp_tokens, refs_tokens, correct, total, max_order
        )
        sys_len += item_sys
        ref_len += item_ref
    return _bleu_score(correct, total, sys_len, ref_len, max_order, effective_order=False)


# --- corpus statistics ---


def compute_corpus_stats(pairs, profile: LanguageProfile) -> CorpusStats:
    vocab_complex: set[str] = set()
    vocab_simple: set[str] = set()
    words_complex = 0
    words_simple = 0
    for pair in pairs:
        vocab_complex.update(metric_tokens(pair.complex))
        vocab_simple.update(metric_tokens(pair.simple))
        words_complex += len(_WORD_RE.findall(pair.complex))
        words_simple += len(_WORD_RE.findall(pair.simple))
    total = len(pairs)
    return CorpusStats(
        vocab_complex=len(vocab_complex),
        vocab_simple=len(vocab_simple),
        avg_len_complex=words_complex / total if total else 0.0,
        avg_len_simple=words_simple / total if total else 0.0,
        total_pairs=total,
    )
