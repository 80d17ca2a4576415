"""Corpus construction: pseudo-pair generation, the per-pair selector, and labeling.

A pseudo pair joins a trusted sentence with the machine translation of its
bridge-language counterpart. One function decides every pair. It runs the
enabled checks in this order and stops at the first that drops the pair:

1. BLEU selector: exact copies (equal after NFC normalization) when
   ``drop_identity`` is set, then sentence BLEU of the translation against
   the trusted sentence below ``h_bleu``;
2. reading-ease selector: a side with no countable words, then an ease gap
   below ``h_fres``, then identical sides (never labeled, even at
   ``h_fres`` = 0). Survivors are labeled with the easier side as the
   simple one.

A score is computed only when a check reaches it, so a kept pair carries the
scores of the enabled selectors and the others stay None (empty in TSV).
The decision depends on nothing but the pair and the configuration, so
filtering is order-stable, idempotent, and safe to fan out across workers.
"""

from __future__ import annotations

import random
import unicodedata
from dataclasses import dataclass, replace
from functools import partial
from multiprocessing import Pool
from typing import Callable, Iterable, Iterator, Optional, Union

from .metrics import fres, sentence_bleu
from .textprep import LanguageProfile, get_profile, metric_tokens, tokenize_words

_SENTINEL = object()


@dataclass
class SentencePair:
    """One candidate pair before labeling; scores are filled by the selectors."""

    source_sentence: str
    translated_sentence: str
    index: int
    bleu: Optional[float] = None
    fres_source: Optional[float] = None
    fres_translated: Optional[float] = None


@dataclass(frozen=True)
class SelectorConfig:
    h_bleu: float = 15.0
    h_fres: float = 10.0
    enable_bleu: bool = True
    enable_fres: bool = True
    drop_identity: bool = True
    dedup: bool = False

    def __post_init__(self):
        if not 0.0 <= self.h_bleu <= 100.0:
            raise ValueError(f"h_bleu must be in [0, 100], got {self.h_bleu}")
        if self.h_fres < 0.0:
            raise ValueError(f"h_fres must be >= 0, got {self.h_fres}")


@dataclass
class LabeledPair:
    """A kept pair with the easier side labeled simple.

    ``provenance`` records which input side became the simple sentence
    ("source", "translated", or "unlabeled" when no selector assigned
    sides). Sides can only coincide for unlabeled passthrough pairs.
    """

    complex: str
    simple: str
    fres_gap: float
    provenance: str
    index: int
    bleu: Optional[float] = None
    fres_complex: Optional[float] = None
    fres_simple: Optional[float] = None


@dataclass
class DropTally:
    """Per-reason drop accounting for one pipeline run."""

    n_input: int = 0
    dropped_identity: int = 0
    dropped_bleu: int = 0
    dropped_fres: int = 0
    dropped_no_words: int = 0
    dropped_duplicate: int = 0
    n_kept: int = 0


@dataclass
class CorpusStats:
    vocab_complex: int
    vocab_simple: int
    avg_len_complex: float
    avg_len_simple: float
    total_pairs: int


@dataclass
class SimplificationCorpus:
    pairs: list[LabeledPair]
    lang: str
    config_snapshot: SelectorConfig
    stats: CorpusStats
    drop_tally: Optional[DropTally] = None


# What the selector returns for one pair: the kept pair, or the name of the
# DropTally field that counts its drop.
Decision = Union[LabeledPair, str]


def generate_pseudo_pairs(
    bitext_targets: Iterable[str], translations: Iterable[str]
) -> Iterator[SentencePair]:
    """Pair the two line-aligned streams, one SentencePair per line, unfiltered."""
    target_iter = iter(bitext_targets)
    translation_iter = iter(translations)
    index = 0
    while True:
        target = next(target_iter, _SENTINEL)
        translation = next(translation_iter, _SENTINEL)
        if target is _SENTINEL and translation is _SENTINEL:
            return
        if target is _SENTINEL or translation is _SENTINEL:
            n_targets = index + sum(1 for _ in target_iter) + (target is not _SENTINEL)
            n_translations = (
                index + sum(1 for _ in translation_iter) + (translation is not _SENTINEL)
            )
            raise ValueError(
                "aligned streams differ in length: "
                f"{n_targets} target lines vs {n_translations} translation lines"
            )
        yield SentencePair(target, translation, index)
        index += 1


def _nfc(text: str) -> str:
    return unicodedata.normalize("NFC", text)


def _is_identity(pair: SentencePair) -> bool:
    return _nfc(pair.source_sentence) == _nfc(pair.translated_sentence)


def _safe_fres(text: str, profile: LanguageProfile) -> Optional[float]:
    try:
        return fres(text, profile)
    except ValueError:
        return None


def _select(
    config: SelectorConfig, profile: Optional[LanguageProfile], pair: SentencePair
) -> Decision:
    """Run the enabled selectors on one pair, in the order the module docstring gives.

    Scores already on the pair are reused; missing ones are computed when a
    check reaches them. ``profile`` is needed only with ``enable_fres``.
    """
    bleu = pair.bleu
    if config.enable_bleu:
        if config.drop_identity and _is_identity(pair):
            return "dropped_identity"
        if bleu is None:
            bleu = sentence_bleu(pair.translated_sentence, [pair.source_sentence])
        if bleu < config.h_bleu:
            return "dropped_bleu"
    fres_source = pair.fres_source
    fres_translated = pair.fres_translated
    if not config.enable_fres:
        return LabeledPair(
            complex=pair.source_sentence,
            simple=pair.translated_sentence,
            fres_gap=0.0,
            provenance="unlabeled",
            index=pair.index,
            bleu=bleu,
            fres_complex=fres_source,
            fres_simple=fres_translated,
        )
    if fres_source is None:
        fres_source = _safe_fres(pair.source_sentence, profile)
    if fres_translated is None:
        fres_translated = _safe_fres(pair.translated_sentence, profile)
    if fres_source is None or fres_translated is None:
        return "dropped_no_words"
    if abs(fres_source - fres_translated) < config.h_fres:
        return "dropped_fres"
    if _is_identity(pair):
        return "dropped_identity"
    # The side with the higher reading-ease score is the simple one.
    if fres_translated >= fres_source:
        return LabeledPair(
            complex=pair.source_sentence,
            simple=pair.translated_sentence,
            fres_gap=fres_translated - fres_source,
            provenance="translated",
            index=pair.index,
            bleu=bleu,
            fres_complex=fres_source,
            fres_simple=fres_translated,
        )
    return LabeledPair(
        complex=pair.translated_sentence,
        simple=pair.source_sentence,
        fres_gap=fres_source - fres_translated,
        provenance="source",
        index=pair.index,
        bleu=bleu,
        fres_complex=fres_translated,
        fres_simple=fres_source,
    )


def _count_drop(tally: Optional[DropTally], reason: str) -> None:
    if tally is not None:
        setattr(tally, reason, getattr(tally, reason) + 1)


def bleu_selector(
    pairs: Iterable[SentencePair],
    config: SelectorConfig,
    tally: Optional[DropTally] = None,
) -> Iterator[SentencePair]:
    """Keep pairs whose translation scores >= h_bleu against the source.

    Exact copies (equal after NFC normalization) are dropped first when
    ``drop_identity`` is set. Survivors are copies that carry their BLEU
    score; the input pairs are not changed, and input order is preserved.
    """
    if not config.enable_bleu:
        raise ValueError("bleu_selector called with enable_bleu=False")
    config = replace(config, enable_fres=False)
    for pair in pairs:
        decision = _select(config, None, pair)
        if isinstance(decision, str):
            _count_drop(tally, decision)
        else:
            yield replace(pair, bleu=decision.bleu)


def fres_selector(
    pairs: Iterable[SentencePair],
    config: SelectorConfig,
    profile: LanguageProfile,
    tally: Optional[DropTally] = None,
) -> Iterator[LabeledPair]:
    """Keep pairs with a reading-ease gap >= h_fres (inclusive) and label them.

    Pairs with a side that has no countable words are dropped and tallied,
    not raised. Pairs with identical sides are never labeled (relevant only
    at h_fres = 0, where the zero gap would otherwise pass).
    """
    if not config.enable_fres:
        raise ValueError("fres_selector called with enable_fres=False")
    config = replace(config, enable_bleu=False)
    for pair in pairs:
        decision = _select(config, profile, pair)
        if isinstance(decision, str):
            _count_drop(tally, decision)
        else:
            yield decision


def _map(func: Callable, pairs: Iterable[SentencePair], workers: int) -> Iterator:
    if workers <= 1:
        yield from map(func, pairs)
        return
    # imap preserves input order, so the merged stream is bit-identical to
    # the single-worker run regardless of scheduling.
    with Pool(workers) as pool:
        yield from pool.imap(func, pairs, chunksize=256)


def _collect(
    decisions: Iterable[Decision], config: SelectorConfig, profile: LanguageProfile
) -> SimplificationCorpus:
    """Tally the decisions, drop repeated (complex, simple) pairs under ``dedup``."""
    tally = DropTally()
    kept: list[LabeledPair] = []
    seen: set[tuple[str, str]] = set()
    for decision in decisions:
        tally.n_input += 1
        if not isinstance(decision, str) and config.dedup:
            key = (decision.complex, decision.simple)
            if key in seen:
                decision = "dropped_duplicate"
            seen.add(key)
        if isinstance(decision, str):
            _count_drop(tally, decision)
        else:
            kept.append(decision)
    tally.n_kept = len(kept)
    return SimplificationCorpus(
        pairs=kept,
        lang=profile.lang_code,
        config_snapshot=config,
        stats=compute_corpus_stats(kept, profile),
        drop_tally=tally,
    )


def build_corpus(
    bitext_targets: Iterable[str],
    translations: Iterable[str],
    config: SelectorConfig,
    profile: LanguageProfile,
    workers: int = 1,
) -> SimplificationCorpus:
    """Generate, score, filter, and label; returns the corpus plus drop tallies."""
    pairs = generate_pseudo_pairs(bitext_targets, translations)
    decisions = _map(partial(_select, config, profile), pairs, workers)
    return _collect(decisions, config, profile)


def compute_corpus_stats(pairs: list[LabeledPair], profile: LanguageProfile) -> CorpusStats:
    """Distinct-token vocabulary and mean word length per side."""
    vocab_complex: set[str] = set()
    vocab_simple: set[str] = set()
    words_complex = 0
    words_simple = 0
    for pair in pairs:
        vocab_complex.update(metric_tokens(pair.complex))
        vocab_simple.update(metric_tokens(pair.simple))
        words_complex += len(tokenize_words(pair.complex, profile).tokens)
        words_simple += len(tokenize_words(pair.simple, profile).tokens)
    total = len(pairs)
    return CorpusStats(
        vocab_complex=len(vocab_complex),
        vocab_simple=len(vocab_simple),
        avg_len_complex=words_complex / total if total else 0.0,
        avg_len_simple=words_simple / total if total else 0.0,
        total_pairs=total,
    )


ABLATION_VARIANTS = ("pseudo", "no_bleu", "no_fres", "full")


def _score_all(profile: LanguageProfile, pair: SentencePair) -> SentencePair:
    return replace(
        pair,
        bleu=sentence_bleu(pair.translated_sentence, [pair.source_sentence]),
        fres_source=_safe_fres(pair.source_sentence, profile),
        fres_translated=_safe_fres(pair.translated_sentence, profile),
    )


def ablate(
    bitext_targets: Iterable[str],
    translations: Iterable[str],
    profile: LanguageProfile,
    config: Optional[SelectorConfig] = None,
    workers: int = 1,
) -> dict[str, SimplificationCorpus]:
    """Build the four selector variants from one shared scoring pass.

    Returns corpora keyed "pseudo" (no selectors), "no_bleu" (ease selector
    only), "no_fres" (BLEU selector only), and "full".
    """
    base = config or SelectorConfig()
    # Score once; each variant then decides on the cached scores. Holds all
    # pairs in memory, sized for ablation studies.
    pairs = generate_pseudo_pairs(bitext_targets, translations)
    scored = list(_map(partial(_score_all, profile), pairs, workers))

    variant_configs = {
        "pseudo": replace(base, enable_bleu=False, enable_fres=False),
        "no_bleu": replace(base, enable_bleu=False, enable_fres=True),
        "no_fres": replace(base, enable_bleu=True, enable_fres=False),
        "full": replace(base, enable_bleu=True, enable_fres=True),
    }
    return {
        name: _collect((_select(variant, profile, pair) for pair in scored), variant, profile)
        for name, variant in variant_configs.items()
    }


def subset(corpus: SimplificationCorpus, n: int, seed: int) -> SimplificationCorpus:
    """Deterministic random sample of n pairs, preserving relative order."""
    total = len(corpus.pairs)
    if n > total:
        raise ValueError(f"cannot sample {n} pairs from a corpus of {total}")
    indices = sorted(random.Random(seed).sample(range(total), n))
    pairs = [corpus.pairs[i] for i in indices]
    return SimplificationCorpus(
        pairs=pairs,
        lang=corpus.lang,
        config_snapshot=corpus.config_snapshot,
        stats=compute_corpus_stats(pairs, get_profile(corpus.lang)),
        drop_tally=None,
    )
