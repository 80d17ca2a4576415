"""Evaluation metrics: reading ease, grade level, BLEU, and SARI.

BLEU matches the mteval-13a lineage: modified n-gram precisions clipped
against the closest reference, geometric mean, brevity penalty, and
exponential smoothing of zero counts at the sentence level. SARI follows
the de facto standard tool behavior: lowercased 13a tokens,
reference-count weighting, F1 for keep/add and precision for delete,
averaged over n-gram orders 1..4 and then over the three operations.

BLEU clips by set membership and counts no reference n-gram (README has the
details). One-reference sentence BLEU, the corpus builder's, runs its own loop
over the n-gram orders with the same arithmetic, so its scores are bit-identical.
"""

from __future__ import annotations

import math
import re
from collections import Counter, _count_elements
from dataclasses import asdict, dataclass
from functools import lru_cache, reduce
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
_FKGL_VOWEL_RUN = re.compile("[aeiouy]+")
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
        """Flat JSON form: the SARI fields but the n-gram order, then the other fields."""
        fields = asdict(self)
        breakdown = fields.pop("sari")
        del breakdown["max_ngram_order"]
        return {**breakdown, **fields}


# --- readability ---


def _fres_formula(
    profile: LanguageProfile, n_words: int, n_sentences: int, n_syllables: int
) -> float:
    if n_words == 0:
        raise ValueError(_NO_WORDS_ERROR)
    return profile.k1 - profile.k2 * (n_words / n_sentences) - profile.k3 * (n_syllables / n_words)


def fres(text: str, profile: LanguageProfile) -> float:
    """Reading-ease score k1 - k2*(words/sentences) - k3*(syllables/words).

    Not clamped to [0, 100]; short easy text legitimately exceeds 100.
    Raises ValueError when the text has no countable words.
    """
    return _fres_formula(profile, *text_stats(text, profile))


@lru_cache(maxsize=2**16)
def _fkgl_syllables(token: str) -> int:
    word = token.lower().strip()
    if word in _FKGL_SPECIAL_WORDS:
        return _FKGL_SPECIAL_WORDS[word]
    word = word.rstrip("e")
    count = len(_FKGL_VOWEL_RUN.findall(word))
    count += sum(1 for pattern in _FKGL_ADD_PATTERNS if pattern.search(word))
    return count - sum(1 for pattern in _FKGL_SUB_PATTERNS if pattern.search(word))


def _fkgl_counts(tokens: Sequence[str]) -> tuple[int, int, int]:
    # No tokens give (0, 1, 0), which pools and raises like (0, 0, 0).
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
    return _fkgl_formula(*_fkgl_counts(metric_tokens(text.lower())))


def _pool(totals: list[int], counts: tuple[int, int, int]) -> list[int]:
    """Add one text's (words, sentences, syllables); a text with words adds >= 1 sentence."""
    n_words, n_sentences, n_syllables = counts
    if n_words:
        totals[0] += n_words
        totals[1] += max(n_sentences, 1)
        totals[2] += n_syllables
    return totals


def corpus_fkgl(texts: Sequence[str]) -> float:
    """Grade level over pooled counts (each text contributes >= 1 sentence)."""
    counts = (_fkgl_counts(metric_tokens(text.lower())) for text in texts)
    return _fkgl_formula(*reduce(_pool, counts, [0] * 3))


def corpus_fres(texts: Sequence[str], profile: LanguageProfile) -> float:
    """Reading ease over pooled counts (each text contributes >= 1 sentence)."""
    return _fres_formula(profile, *reduce(_pool, (text_stats(t, profile) for t in texts), [0] * 3))


# --- BLEU ---


def _check_max_order(max_order: int) -> None:
    if max_order < 1:
        raise ValueError(f"max_order must be >= 1, got {max_order}")


def _ngram_counts(tokens: Sequence[str], max_order: int, counts: dict | None = None) -> dict:
    """Counts of every n-gram of orders 1..max_order, order by order, added into ``counts``."""
    counts = {} if counts is None else counts
    shifted = [tokens[i:] for i in range(max_order)]
    for n in range(1, max_order + 1):
        _count_elements(counts, zip(*shifted[:n]))
    return counts


def _clipped_matches(
    hyp: Sequence[str], refs: Sequence[Sequence[str]], correct: list[int], orders: range
) -> None:
    """Add each order's clipped hypothesis n-gram matches to ``correct``."""
    grams, refs_grams = hyp, refs  # unigrams are tokens
    for n in orders:
        if n > 1:  # an order-n gram is an (order n-1 gram, token) pair
            grams = list(zip(grams, hyp[n - 1:]))
            refs_grams = [list(zip(prev, ref[n - 1:])) for prev, ref in zip(refs_grams, refs)]
        distinct = set(grams)  # each matches once if some reference has it
        unmatched = distinct.difference(*refs_grams)
        matched = len(distinct) - len(unmatched)
        if not matched:  # nor can any longer n-gram
            return
        if len(distinct) < len(grams):
            counts: dict = {}  # only a repeated n-gram is counted in each reference
            _count_elements(counts, grams)
            for gram, count in counts.items():
                if count > 1 and gram not in unmatched:
                    matched += min(count, max([ref.count(gram) for ref in refs_grams])) - 1
        correct[n - 1] += matched


def _token_bleu(
    items: Iterable[tuple[Sequence[str], Sequence[Sequence[str]]]],
    max_order: int,
    effective_order: bool,
) -> float:
    """BLEU over already tokenized ``(hypothesis, references)`` items, statistics pooled.

    Every item needs at least one reference. One item with ``effective_order``
    is sentence BLEU; many items without it are corpus BLEU.
    """
    correct, total = [0] * max_order, [0] * max_order
    sys_len = ref_len = 0
    for hyp_tokens, refs_tokens in items:
        hyp_len = len(hyp_tokens)
        sys_len += hyp_len
        orders = range(1, min(max_order, hyp_len) + 1)
        for n in orders:
            total[n - 1] += hyp_len - n + 1
        if hyp_tokens in refs_tokens:  # that reference clips no n-gram and is the closest length
            ref_len += hyp_len
            for n in orders:
                correct[n - 1] += hyp_len - n + 1
        else:
            _clipped_matches(hyp_tokens, refs_tokens, correct, orders)
            # The closest reference length; ties go to the shorter reference.
            ref_len += min((abs(hyp_len - len(ref)), len(ref)) for ref in refs_tokens)[1]
    logs, smooth = [], 1.0  # each order's log precision, up to the first without n-grams
    for n in range(max_order):
        if total[n] == 0:
            break
        if correct[n] == 0:  # exponential smoothing
            smooth *= 2.0
        precision = 100.0 * correct[n] / total[n] if correct[n] else 100.0 / (smooth * total[n])
        logs.append(math.log(precision))
    if not logs or (len(logs) < max_order and not effective_order):
        return 0.0
    brevity_penalty = math.exp(1 - ref_len / sys_len) if sys_len < ref_len else 1.0
    return brevity_penalty * math.exp(sum(logs) / len(logs))


def _pair_bleu(hyp: Sequence[str], ref: Sequence[str], max_order: int = MAX_NGRAM_ORDER) -> float:
    """``_token_bleu([(hyp, [ref])], max_order, True)`` in one loop over orders, bit for bit."""
    hyp_len = len(hyp)
    if not hyp_len:
        return 0.0
    same = hyp == ref
    grams, ref_grams, matched = hyp, ref, 1
    logs, smooth = [], 1.0
    for n in range(1, min(max_order, hyp_len) + 1):
        total = hyp_len - n + 1
        if same:
            matched = total
        elif matched:  # once an order has no match, no longer one has
            if n > 1:
                grams = list(zip(grams, hyp[n - 1:]))
                ref_grams = list(zip(ref_grams, ref[n - 1:]))
            distinct = set(grams)
            unmatched = distinct.difference(ref_grams)
            matched = len(distinct) - len(unmatched)
            if matched and len(distinct) < len(grams):
                counts: dict = {}
                _count_elements(counts, grams)
                for gram, count in counts.items():
                    if count > 1 and gram not in unmatched:
                        matched += min(count, ref_grams.count(gram)) - 1
        if not matched:  # exponential smoothing
            smooth *= 2.0
        logs.append(math.log(100.0 * matched / total if matched else 100.0 / (smooth * total)))
    brevity_penalty = math.exp(1 - len(ref) / hyp_len) if hyp_len < len(ref) else 1.0
    return brevity_penalty * math.exp(sum(logs) / len(logs))


def _bleu_item(hypothesis: str, references: Sequence[str]) -> tuple[list[str], list[list[str]]]:
    """Cased tokens of a hypothesis and of its distinct references, each string tokenized once.

    Leaving out a repeated reference is exact: clipping takes an n-gram's largest
    count over the references, and the closest length is a minimum.
    """
    distinct = dict.fromkeys(references)
    tokens = {text: metric_tokens(text) for text in {hypothesis, *distinct}}
    return tokens[hypothesis], [tokens[ref] for ref in distinct]


def sentence_bleu(hypothesis: str, references: Sequence[str], max_order: int = MAX_NGRAM_ORDER) -> float:
    """Sentence-level BLEU from 0 to 100, or one rounding step above, case-sensitive 13a tokens.

    Exponential smoothing for zero counts, effective n-gram order for short sentences. An empty
    hypothesis scores 0.0; an exact match can score 100.00000000000004, as in sacrebleu.
    """
    _check_max_order(max_order)
    if not references:
        raise ValueError("at least one reference is required")
    hyp_tokens, refs_tokens = _bleu_item(hypothesis, references)
    if len(refs_tokens) == 1:
        return _pair_bleu(hyp_tokens, refs_tokens[0], max_order)
    return _token_bleu([(hyp_tokens, refs_tokens)], max_order, effective_order=True)


def corpus_bleu(
    hypotheses: Sequence[str],
    references: Sequence[Sequence[str]],
    max_order: int = MAX_NGRAM_ORDER,
) -> float:
    """Corpus BLEU: n-gram statistics pooled before combining; its range is ``sentence_bleu``'s."""
    _check_max_order(max_order)
    if len(hypotheses) != len(references):
        raise ValueError(
            f"hypothesis/reference count mismatch: {len(hypotheses)} vs {len(references)}"
        )
    if not all(references):
        raise ValueError("every hypothesis needs at least one reference")
    items = (_bleu_item(hypothesis, refs) for hypothesis, refs in zip(hypotheses, references))
    return _token_bleu(items, max_order, effective_order=False)


# --- SARI ---


def _f1(precision: float, recall: float) -> float:
    if precision > 0 or recall > 0:
        return 2 * precision * recall / (precision + recall)
    return 0.0


def _sari_item(
    source: str, hypothesis: str, references: Sequence[str], max_order: int
) -> tuple[float, float, float]:
    """Mean (keep, delete, add) over n-gram orders 1..max_order.

    A hypothesis equal to its source shares the source's n-gram counts. Source and
    hypothesis counts are scaled by the number of references so they are comparable
    with the counts pooled over all references. Each order's float sums run over the
    source n-grams of that order in first-occurrence order.
    """
    num_refs = len(references)
    lowered = {text: metric_tokens(text.lower()) for text in {source, hypothesis, *references}}
    source_counts = _ngram_counts(lowered[source], max_order)
    hyp_tokens = lowered[hypothesis]
    hyp_counts = source_counts if hypothesis == source else _ngram_counts(hyp_tokens, max_order)
    ref_counts: dict = {}
    for ref in references:
        _ngram_counts(lowered[ref], max_order, ref_counts)
    in_hyp = hyp_counts.get
    in_refs = ref_counts.get

    # Per n-gram order n, at index n, over the reference-scaled counts:
    # source n-grams also in the hypothesis (kept), in some reference (worth
    # keeping) and fewer times in the hypothesis (deleted); the keep
    # precision and recall sums; and the delete terms, summed with ``sum``
    # (which adds floats with compensation from Python 3.12 on).
    size = max_order + 1
    n_kept = [0] * size
    n_keep_all = [0] * size
    n_deleted = [0] * size
    keep_precision = [0.0] * size
    keep_recall = [0.0] * size
    delete_terms: list[list[float]] = [[] for _ in range(size)]
    for gram, count in source_counts.items():
        n = len(gram)
        hyp_count = in_hyp(gram, 0)
        ref_count = in_refs(gram, 0)
        if ref_count:
            n_keep_all[n] += 1
        if hyp_count:
            n_kept[n] += 1
            if ref_count:
                keep_rep = (count if count < hyp_count else hyp_count) * num_refs
                good = keep_rep if keep_rep < ref_count else ref_count
                keep_all = count * num_refs
                keep_precision[n] += good / keep_rep
                keep_recall[n] += good / (keep_all if keep_all < ref_count else ref_count)
        if count > hyp_count:
            n_deleted[n] += 1
            del_rep = (count - hyp_count) * num_refs
            if del_rep > ref_count:
                delete_terms[n].append((del_rep - ref_count) / del_rep)

    n_added = [0] * size
    n_added_good = [0] * size
    for gram in hyp_counts.keys() - source_counts.keys():
        n = len(gram)
        n_added[n] += 1
        if gram in ref_counts:
            n_added_good[n] += 1
    n_refs_grams = Counter(map(len, ref_counts))

    keep_total = delete_total = add_total = 0.0
    for n in range(1, max_order + 1):
        keep_total += _f1(
            keep_precision[n] / n_kept[n] if n_kept[n] else 0.0,
            keep_recall[n] / n_keep_all[n] if n_keep_all[n] else 0.0,
        )
        if n_deleted[n]:
            delete_total += sum(delete_terms[n]) / n_deleted[n]
        # Addable n-grams: in some reference but not in the source.
        n_addable = n_refs_grams[n] - n_keep_all[n]
        add_total += _f1(
            n_added_good[n] / n_added[n] if n_added[n] else 0.0,
            n_added_good[n] / n_addable if n_addable else 0.0,
        )
    return keep_total / max_order, delete_total / max_order, add_total / max_order


def sari(
    sources: Sequence[str],
    hypotheses: Sequence[str],
    references: Sequence[Sequence[str]],
    max_order: int = MAX_NGRAM_ORDER,
) -> SariBreakdown:
    """Corpus SARI: per-sentence keep/add/delete averaged over the corpus."""
    _check_max_order(max_order)
    if not (len(sources) == len(hypotheses) == len(references)):
        raise ValueError(
            "aligned sources/hypotheses/references required, got lengths "
            f"{len(sources)}/{len(hypotheses)}/{len(references)}"
        )
    if not hypotheses:
        raise ValueError("nothing to score: empty input")
    if not all(references):
        raise ValueError("every hypothesis needs at least one reference")
    sums = [0.0, 0.0, 0.0]  # keep, delete, add: plain += in item order (sum compensates from 3.12)
    for source, hypothesis, refs in zip(sources, hypotheses, references):
        for i, term in enumerate(_sari_item(source, hypothesis, refs, max_order)):
            sums[i] += term
    f_keep, f_delete, f_add = (100.0 * total / len(hypotheses) for total in sums)
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
    """SARI, FKGL, reading ease (``profile``) and corpus BLEU of aligned triples; SARI checks them."""
    return EvalReport(
        sari=sari(sources, hypotheses, references),
        fkgl=corpus_fkgl(hypotheses),
        fres=corpus_fres(hypotheses, profile),
        bleu=corpus_bleu(hypotheses, references),
        n_items=len(hypotheses),
    )
