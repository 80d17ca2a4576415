"""The regex scoring kernel, kept as a test oracle.

``metric_tokens`` (one regex pass per 13a rule, with ``\\1``-style
templates), the per-gram BLEU statistics, the ``(word, profile)``-keyed
syllable count behind ``text_stats``, and the re-tokenizing corpus
statistics are copied unchanged (``tokenize_words`` inlined) from the
implementation that the translate-table tokenizer, the zip n-gram counts,
the per-profile syllable cache and the incremental stats accumulator
replaced. ``sentence_bleu`` and ``corpus_bleu`` assemble them the way the
metrics module used to, so the differential tests can compare exact values.

``split_sentences`` is copied unchanged from the implementation that the
one-match-per-sentence count and its digit-free fast path replaced: a
decimal-point mask, a split on terminal punctuation and a count of the
non-blank segments.

The SARI section is copied unchanged from the implementation that the
all-orders n-gram counter replaced: four per-order ``Counter``s per side
combined with ``&``, ``-`` and set operations.

The evaluation section is copied unchanged from the implementation that the
one-walk ``evaluate`` replaced: SARI, corpus BLEU, grade level and reading
ease each walk the items on their own and tokenize every string they read.
It runs on this module's tokenizer, SARI, BLEU and text statistics; the two
readability formulas, which the walk did not change, come from the metrics
module.

``_fkgl_syllables`` is copied unchanged from the implementation that the
vowel-run regex and the pattern sums replaced: one pass over the characters,
then one loop per pattern table. The tables themselves come from the metrics
module.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from functools import lru_cache
from typing import Iterable, Sequence

from sscorpus.metrics import (
    _FKGL_ADD_PATTERNS,
    _FKGL_SPECIAL_WORDS,
    _FKGL_SUB_PATTERNS,
    EvalReport,
    SariBreakdown,
    _fkgl_formula,
    _fres_formula,
)
from sscorpus.pipeline import CorpusStats
from sscorpus.textprep import LanguageProfile, TextStats

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

# Terminal punctuation ends a sentence; a period between two digits is a
# decimal point, not a boundary.
_DECIMAL_DOT = re.compile(r"(?<=[0-9])\.(?=[0-9])")
_SENT_BOUNDARY = re.compile(r"[.!?…]+")


def split_sentences(text: str) -> int:
    """Number of sentences under terminal-punctuation splitting.

    Trailing text without terminal punctuation counts as one sentence;
    blank input counts zero.
    """
    if not text or not text.strip():
        return 0
    masked = _DECIMAL_DOT.sub("\x00", text)
    return sum(1 for seg in _SENT_BOUNDARY.split(masked) if seg.strip())


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


# --- SARI ---


def _sari_ngram_scores(
    s_grams: list, c_grams: list, r_grams_list: list[list], num_refs: int
) -> tuple[float, float, float]:
    """(keep, delete, add) scores for one n-gram order of one sentence.

    Source/hypothesis counts are scaled by the number of references so they
    are comparable with counts pooled over all references.
    """
    r_counter: Counter = Counter()
    for r_grams in r_grams_list:
        r_counter.update(r_grams)
    s_rep = Counter({g: c * num_refs for g, c in Counter(s_grams).items()})
    c_rep = Counter({g: c * num_refs for g, c in Counter(c_grams).items()})

    keep_rep = s_rep & c_rep
    keep_good = keep_rep & r_counter
    keep_all = s_rep & r_counter
    precision_sum = 0.0
    recall_sum = 0.0
    for gram, good in keep_good.items():
        precision_sum += good / keep_rep[gram]
        recall_sum += good / keep_all[gram]
    keep_precision = precision_sum / len(keep_rep) if keep_rep else 0.0
    keep_recall = recall_sum / len(keep_all) if keep_all else 0.0
    keep = 0.0
    if keep_precision > 0 or keep_recall > 0:
        keep = 2 * keep_precision * keep_recall / (keep_precision + keep_recall)

    del_rep = s_rep - c_rep
    del_good = del_rep - r_counter
    delete = 0.0
    if del_rep:
        delete = sum(good / del_rep[gram] for gram, good in del_good.items()) / len(del_rep)

    added = set(c_rep) - set(s_rep)
    added_good = added & set(r_counter)
    addable = set(r_counter) - set(s_rep)
    add_precision = len(added_good) / len(added) if added else 0.0
    add_recall = len(added_good) / len(addable) if addable else 0.0
    add = 0.0
    if add_precision > 0 or add_recall > 0:
        add = 2 * add_precision * add_recall / (add_precision + add_recall)

    return keep, delete, add


def _lower_tokens(text: str) -> list[str]:
    return metric_tokens(text.lower())


def _ngrams(tokens: list, n: int) -> list:
    return [tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]


def _sari_sentence(
    source: str, hypothesis: str, references: Sequence[str], max_order: int
) -> tuple[float, float, float]:
    s_tokens = _lower_tokens(source)
    c_tokens = _lower_tokens(hypothesis)
    r_tokens = [_lower_tokens(r) for r in references]
    num_refs = len(references)
    keep_total = delete_total = add_total = 0.0
    for n in range(1, max_order + 1):
        keep, delete, add = _sari_ngram_scores(
            _ngrams(s_tokens, n),
            _ngrams(c_tokens, n),
            [_ngrams(r, n) for r in r_tokens],
            num_refs,
        )
        keep_total += keep
        delete_total += delete
        add_total += add
    return keep_total / max_order, delete_total / max_order, add_total / max_order


def sari(
    sources: Sequence[str],
    hypotheses: Sequence[str],
    references: Sequence[Sequence[str]],
    max_order: int = MAX_NGRAM_ORDER,
) -> SariBreakdown:
    """Corpus SARI: per-sentence keep/add/delete averaged over the corpus."""
    if not (len(sources) == len(hypotheses) == len(references)):
        raise ValueError(
            "aligned sources/hypotheses/references required, got lengths "
            f"{len(sources)}/{len(hypotheses)}/{len(references)}"
        )
    if not hypotheses:
        raise ValueError("nothing to score: empty input")
    keep_sum = delete_sum = add_sum = 0.0
    for source, hypothesis, refs in zip(sources, hypotheses, references):
        if not refs:
            raise ValueError("every hypothesis needs at least one reference")
        keep, delete, add = _sari_sentence(source, hypothesis, refs, max_order)
        keep_sum += keep
        delete_sum += delete
        add_sum += add
    n = len(hypotheses)
    f_keep = 100.0 * keep_sum / n
    f_delete = 100.0 * delete_sum / n
    f_add = 100.0 * add_sum / n
    return SariBreakdown(
        sari=(f_keep + f_add + f_delete) / 3.0,
        f_keep=f_keep,
        f_add=f_add,
        f_delete=f_delete,
        max_ngram_order=max_order,
    )


# --- evaluation ---


def _fkgl_syllables(token: str) -> int:
    word = token.lower().strip()
    if word in _FKGL_SPECIAL_WORDS:
        return _FKGL_SPECIAL_WORDS[word]
    word = word.rstrip("e")
    count = 0
    previous_was_vowel = False
    for ch in word:
        is_vowel = ch in "aeiouy"
        if is_vowel and not previous_was_vowel:
            count += 1
        previous_was_vowel = is_vowel
    for pattern in _FKGL_ADD_PATTERNS:
        if pattern.search(word):
            count += 1
    for pattern in _FKGL_SUB_PATTERNS:
        if pattern.search(word):
            count -= 1
    return count


def _fkgl_counts(text: str) -> tuple[int, int, int]:
    tokens = metric_tokens(text.lower())
    if not tokens:
        return 0, 0, 0
    n_sentences = max(split_sentences(" ".join(tokens)), 1)
    return len(tokens), n_sentences, sum(_fkgl_syllables(t) for t in tokens)


def _pooled(counts: Iterable[tuple[int, int, int]]) -> tuple[int, int, int]:
    """Summed (words, sentences, syllables); each text with words adds >= 1 sentence."""
    n_words = n_sentences = n_syllables = 0
    for item_words, item_sentences, item_syllables in counts:
        if item_words:
            n_words += item_words
            n_sentences += max(item_sentences, 1)
            n_syllables += item_syllables
    return n_words, n_sentences, n_syllables


def corpus_fkgl(texts: Sequence[str]) -> float:
    """Grade level over pooled counts (each text contributes >= 1 sentence)."""
    return _fkgl_formula(*_pooled(map(_fkgl_counts, texts)))


def corpus_fres(texts: Sequence[str], profile: LanguageProfile) -> float:
    """Reading ease over pooled counts (each text contributes >= 1 sentence)."""
    return _fres_formula(profile, *_pooled(text_stats(text, profile) for text in texts))


def evaluate(
    sources: Sequence[str],
    hypotheses: Sequence[str],
    references: Sequence[Sequence[str]],
    profile: LanguageProfile,
) -> EvalReport:
    """Score aligned (source, hypothesis, reference-set) triples.

    SARI and BLEU compare hypotheses against sources/references; FKGL (with
    its English formula) and reading ease (with ``profile``) are computed
    over the pooled hypothesis counts. SARI runs first and checks the inputs.
    """
    return EvalReport(
        sari=sari(sources, hypotheses, references),
        fkgl=corpus_fkgl(hypotheses),
        fres=corpus_fres(hypotheses, profile),
        bleu=corpus_bleu(hypotheses, references),
        n_items=len(hypotheses),
    )
