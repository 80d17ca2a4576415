"""Evaluation metrics: reading ease, grade level, BLEU, and SARI.

BLEU matches the mteval-13a lineage: modified n-gram precisions clipped
against the closest reference, geometric mean, brevity penalty, and
exponential smoothing of zero counts at the sentence level. SARI follows
the de facto standard tool behavior: lowercased 13a tokens,
reference-count weighting, F1 for keep/add and precision for delete,
averaged over n-gram orders 1..4 and then over the three operations.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import Iterable, Sequence

from .textprep import LanguageProfile, metric_tokens, split_sentences, text_stats

MAX_NGRAM_ORDER = 4

_FKGL_PER_SENTENCE = 0.39
_FKGL_PER_WORD = 11.8
_FKGL_OFFSET = 15.59

_NO_WORDS_ERROR = "undefined readability (no words)"

# FKGL follows the evaluation-tool conventions rather than the
# readability-grade tokenizer: text is lowercased and 13a-tokenized, every
# token (punctuation included) counts as a word, and syllables come from the
# classic English readability-script heuristic, special-case tables and all
# (the NLTK-contrib readability lineage). Grade levels reported next to
# published system scores stay comparable only under these conventions.
_FKGL_SPECIAL_WORDS = {
    "the": 1, "tottered": 2, "chummed": 1, "peeped": 1, "moustaches": 2,
    "shamefully": 3, "messieurs": 2, "satiated": 4, "sailmaker": 4,
    "sheered": 1, "disinterred": 3, "propitiatory": 6, "bepatched": 2,
    "particularized": 5, "caressed": 2, "trespassed": 2, "sepulchre": 3,
    "flapped": 1, "hemispheres": 3, "pencilled": 2, "motioned": 2,
    "poleman": 2, "slandered": 2, "sombre": 2, "etc": 4, "sidespring": 2,
    "mimes": 1, "effaces": 2, "mr": 2, "mrs": 2, "ms": 1, "dr": 2, "st": 1,
    "sr": 2, "jr": 2, "truckle": 2, "foamed": 1, "fringed": 2,
    "clattered": 2, "capered": 2, "mangroves": 2, "suavely": 2,
    "reclined": 2, "brutes": 1, "effaced": 2, "quivered": 2, "h'm": 1,
    "veriest": 3, "sententiously": 4, "deafened": 2, "manoeuvred": 3,
    "unstained": 2, "gaped": 1, "stammered": 2, "shivered": 2,
    "discoloured": 3, "gravesend": 2, "60": 2, "lb": 1, "unexpressed": 3,
    "greyish": 2, "unostentatious": 5,
}
_FKGL_ADD_PATTERNS = [re.compile(p) for p in (
    "ia", "riet", "dien", "iu", "io", "ii", "[aeiouy]bl$", "mbl$",
    "[aeiou]{3}", "^mc", "ism$", r"(.)(?!\1)([aeiouy])\2l$", "[^l]llien",
    "^coad.", "^coag.", "^coal.", "^coax.",
    r"(.)(?!\1)[gq]ua(.)(?!\2)[aeiou]", "dnt$",
)]
_FKGL_SUB_PATTERNS = [re.compile(p) for p in (
    "cial", "tia", "cius", "cious", "gui", "ion", "iou", "sia$", ".ely$",
)]


@dataclass(frozen=True)
class SariBreakdown:
    """SARI score with its keep/add/delete components, all on a 0-100 scale."""

    sari: float
    f_keep: float
    f_add: float
    f_delete: float
    max_ngram_order: int = MAX_NGRAM_ORDER


@dataclass(frozen=True)
class EvalReport:
    sari: SariBreakdown
    fkgl: float
    fres: float
    bleu: float
    n_items: int

    def to_dict(self) -> dict:
        """Flat JSON form with fixed field names."""
        return {
            "sari": self.sari.sari,
            "f_keep": self.sari.f_keep,
            "f_add": self.sari.f_add,
            "f_delete": self.sari.f_delete,
            "fkgl": self.fkgl,
            "fres": self.fres,
            "bleu": self.bleu,
            "n_items": self.n_items,
        }


# --- readability ---


def fres(text: str, profile: LanguageProfile) -> float:
    """Reading-ease score k1 - k2*(words/sentences) - k3*(syllables/words).

    Not clamped to [0, 100]; short easy text legitimately exceeds 100.
    Raises ValueError when the text has no countable words.
    """
    stats = text_stats(text, profile)
    if stats.n_words == 0:
        raise ValueError(_NO_WORDS_ERROR)
    words_per_sentence = stats.n_words / stats.n_sentences
    syllables_per_word = stats.n_syllables / stats.n_words
    return profile.k1 - profile.k2 * words_per_sentence - profile.k3 * syllables_per_word


@lru_cache(maxsize=2**16)
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


def _fkgl_formula(n_words: int, n_sentences: int, n_syllables: int) -> float:
    if n_words == 0:
        raise ValueError(_NO_WORDS_ERROR)
    return (
        _FKGL_PER_SENTENCE * (n_words / n_sentences)
        + _FKGL_PER_WORD * (n_syllables / n_words)
        - _FKGL_OFFSET
    )


def fkgl(text: str) -> float:
    """Flesch-Kincaid grade level of English text, unclamped (can go negative)."""
    return _fkgl_formula(*_fkgl_counts(text))


def corpus_fkgl(texts: Sequence[str]) -> float:
    """Grade level over pooled counts (each text contributes >= 1 sentence)."""
    n_words = n_sentences = n_syllables = 0
    for text in texts:
        item_words, item_sentences, item_syllables = _fkgl_counts(text)
        if item_words == 0:
            continue
        n_words += item_words
        n_sentences += max(item_sentences, 1)
        n_syllables += item_syllables
    return _fkgl_formula(n_words, n_sentences, n_syllables)


def corpus_fres(texts: Sequence[str], profile: LanguageProfile) -> float:
    """Reading ease over pooled counts (each text contributes >= 1 sentence)."""
    n_words = n_sentences = n_syllables = 0
    for text in texts:
        stats = text_stats(text, profile)
        if stats.n_words == 0:
            continue
        n_words += stats.n_words
        n_sentences += max(stats.n_sentences, 1)
        n_syllables += stats.n_syllables
    if n_words == 0:
        raise ValueError(_NO_WORDS_ERROR)
    return profile.k1 - profile.k2 * (n_words / n_sentences) - profile.k3 * (n_syllables / n_words)


# --- BLEU ---


def _ngram_counts(tokens: Sequence[str], max_order: int) -> Counter:
    """Counts of every n-gram of orders 1..max_order, each keyed by its token tuple."""
    return Counter(
        chain.from_iterable(
            zip(*[tokens[i:] for i in range(n)]) for n in range(1, max_order + 1)
        )
    )


def _accumulate_bleu_stats(
    hyp_tokens: Sequence[str],
    refs_tokens: Sequence[Sequence[str]],
    correct: list[int],
    total: list[int],
    max_order: int,
) -> tuple[int, int]:
    # Modified precision: each hypothesis n-gram is clipped to its largest
    # count in any one reference.
    ref_counts = _ngram_counts(refs_tokens[0], max_order)
    for ref in refs_tokens[1:]:
        ref_counts |= _ngram_counts(ref, max_order)
    in_ref = ref_counts.get
    for gram, count in _ngram_counts(hyp_tokens, max_order).items():
        ref_count = in_ref(gram)
        if ref_count:
            correct[len(gram) - 1] += count if count < ref_count else ref_count
    hyp_len = len(hyp_tokens)
    for n in range(1, min(max_order, hyp_len) + 1):
        total[n - 1] += hyp_len - n + 1
    # The closest reference length; ties go to the shorter reference.
    closest_len = min((abs(hyp_len - len(ref)), len(ref)) for ref in refs_tokens)[1]
    return hyp_len, closest_len


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


def _token_bleu(
    items: Iterable[tuple[Sequence[str], Sequence[Sequence[str]]]],
    max_order: int,
    effective_order: bool,
) -> float:
    """BLEU over already tokenized ``(hypothesis, references)`` items, statistics pooled.

    Every item needs at least one reference. One item with ``effective_order``
    is sentence BLEU; many items without it are corpus BLEU.
    """
    correct = [0] * max_order
    total = [0] * max_order
    sys_len = 0
    ref_len = 0
    for hyp_tokens, refs_tokens in items:
        item_sys, item_ref = _accumulate_bleu_stats(
            hyp_tokens, refs_tokens, correct, total, max_order
        )
        sys_len += item_sys
        ref_len += item_ref
    return _bleu_score(correct, total, sys_len, ref_len, max_order, effective_order)


def sentence_bleu(hypothesis: str, references: Sequence[str], max_order: int = MAX_NGRAM_ORDER) -> float:
    """Sentence-level BLEU in [0, 100], case-sensitive 13a tokens.

    Uses exponential smoothing for zero counts and the effective n-gram
    order for short sentences. An empty hypothesis scores 0.0.
    """
    if not references:
        raise ValueError("at least one reference is required")
    item = (metric_tokens(hypothesis), [metric_tokens(r) for r in references])
    return _token_bleu([item], max_order, effective_order=True)


def corpus_bleu(
    hypotheses: Sequence[str],
    references: Sequence[Sequence[str]],
    max_order: int = MAX_NGRAM_ORDER,
) -> float:
    """Corpus BLEU in [0, 100]: n-gram statistics pooled before combining."""
    if len(hypotheses) != len(references):
        raise ValueError(
            f"hypothesis/reference count mismatch: {len(hypotheses)} vs {len(references)}"
        )
    if not all(references):
        raise ValueError("every hypothesis needs at least one reference")
    items = (
        (metric_tokens(hypothesis), [metric_tokens(r) for r in refs])
        for hypothesis, refs in zip(hypotheses, references)
    )
    return _token_bleu(items, max_order, effective_order=False)


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


def evaluate(
    sources: Sequence[str],
    hypotheses: Sequence[str],
    references: Sequence[Sequence[str]],
    profile: LanguageProfile,
) -> EvalReport:
    """Score aligned (source, hypothesis, reference-set) triples.

    SARI and BLEU compare hypotheses against sources/references; FKGL (with
    its English formula) and reading ease (with ``profile``) are computed
    over the pooled hypothesis counts.
    """
    if not (len(sources) == len(hypotheses) == len(references)):
        raise ValueError(
            "aligned sources/hypotheses/references required, got lengths "
            f"{len(sources)}/{len(hypotheses)}/{len(references)}"
        )
    if not hypotheses:
        raise ValueError("nothing to score: empty input")
    return EvalReport(
        sari=sari(sources, hypotheses, references),
        fkgl=corpus_fkgl(hypotheses),
        fres=corpus_fres(hypotheses, profile),
        bleu=corpus_bleu(hypotheses, references),
        n_items=len(hypotheses),
    )
