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

Each side is 13a-tokenized at most once. The BLEU check hands its tokens on
with a kept pair, and the corpus statistics are accumulated from them as
pairs are kept, so a build holds no token lists past the pair they belong to.
"""

from __future__ import annotations

import random
import unicodedata
from dataclasses import dataclass, replace
from functools import partial
from multiprocessing import Pool
from typing import Callable, Iterable, Iterator, Optional, Union

from .metrics import MAX_NGRAM_ORDER, _token_bleu, fres
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


# The 13a tokens of a kept pair's (complex, simple) sides, or None where no
# check tokenized them.
Tokens = Optional[tuple[list[str], list[str]]]

# What the selector returns for one pair: the kept pair with its tokens, or
# the name of the DropTally field that counts its drop.
Decision = Union[tuple[LabeledPair, Tokens], str]

# All three scores and both sides' tokens of one pair, computed up front by
# ``ablate``: (source tokens, translated tokens, bleu, fres_source,
# fres_translated). A None reading ease here means "no countable words".
Scores = tuple[list[str], list[str], float, Optional[float], Optional[float]]


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


def _sentence_bleu(translated_tokens: list[str], source_tokens: list[str]) -> float:
    return _token_bleu([(translated_tokens, [source_tokens])], MAX_NGRAM_ORDER, True)


def _select(
    config: SelectorConfig,
    profile: Optional[LanguageProfile],
    pair: SentencePair,
    scores: Optional[Scores] = None,
) -> Decision:
    """Run the enabled selectors on one pair, in the order the module docstring gives.

    Without ``scores``, scores already on the pair are reused and missing
    ones are computed when a check reaches them; with ``scores``, nothing is
    computed. ``profile`` is needed only with ``enable_fres``.
    """
    if scores is None:
        source_tokens = translated_tokens = None
        bleu, fres_source, fres_translated = pair.bleu, pair.fres_source, pair.fres_translated
    else:
        source_tokens, translated_tokens, bleu, fres_source, fres_translated = scores
    if config.enable_bleu:
        if config.drop_identity and _is_identity(pair):
            return "dropped_identity"
        if bleu is None:
            source_tokens = metric_tokens(pair.source_sentence)
            translated_tokens = metric_tokens(pair.translated_sentence)
            bleu = _sentence_bleu(translated_tokens, source_tokens)
        if bleu < config.h_bleu:
            return "dropped_bleu"
    tokens = None if source_tokens is None else (source_tokens, translated_tokens)
    if not config.enable_fres:
        kept = LabeledPair(
            complex=pair.source_sentence,
            simple=pair.translated_sentence,
            fres_gap=0.0,
            provenance="unlabeled",
            index=pair.index,
            bleu=bleu,
            fres_complex=fres_source,
            fres_simple=fres_translated,
        )
        return kept, tokens
    if scores is None:
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
        kept = LabeledPair(
            complex=pair.source_sentence,
            simple=pair.translated_sentence,
            fres_gap=fres_translated - fres_source,
            provenance="translated",
            index=pair.index,
            bleu=bleu,
            fres_complex=fres_source,
            fres_simple=fres_translated,
        )
        return kept, tokens
    kept = LabeledPair(
        complex=pair.translated_sentence,
        simple=pair.source_sentence,
        fres_gap=fres_source - fres_translated,
        provenance="source",
        index=pair.index,
        bleu=bleu,
        fres_complex=fres_translated,
        fres_simple=fres_source,
    )
    return kept, None if tokens is None else (translated_tokens, source_tokens)


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
            yield replace(pair, bleu=decision[0].bleu)


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
            yield decision[0]


def _map(func: Callable, pairs: Iterable[SentencePair], workers: int) -> Iterator:
    if workers <= 1:
        yield from map(func, pairs)
        return
    # imap preserves input order, so the merged stream is bit-identical to
    # the single-worker run regardless of scheduling.
    with Pool(workers) as pool:
        yield from pool.imap(func, pairs, chunksize=256)


class _StatsAccumulator:
    """Corpus statistics folded in one kept pair at a time."""

    def __init__(self) -> None:
        self.vocab_complex: set[str] = set()
        self.vocab_simple: set[str] = set()
        self.words_complex = 0
        self.words_simple = 0
        self.total = 0

    def add(self, pair: LabeledPair, tokens: Tokens = None) -> None:
        """Count ``pair``; ``tokens`` are its sides' 13a tokens when already known."""
        if tokens is None:
            tokens = (metric_tokens(pair.complex), metric_tokens(pair.simple))
        self.vocab_complex.update(tokens[0])
        self.vocab_simple.update(tokens[1])
        self.words_complex += len(tokenize_words(pair.complex).tokens)
        self.words_simple += len(tokenize_words(pair.simple).tokens)
        self.total += 1

    def stats(self) -> CorpusStats:
        total = self.total
        return CorpusStats(
            vocab_complex=len(self.vocab_complex),
            vocab_simple=len(self.vocab_simple),
            avg_len_complex=self.words_complex / total if total else 0.0,
            avg_len_simple=self.words_simple / total if total else 0.0,
            total_pairs=total,
        )


def compute_corpus_stats(pairs: Iterable[LabeledPair], profile: LanguageProfile) -> CorpusStats:
    """Distinct-token vocabulary and mean word length per side."""
    del profile  # the counts are the same under every profile
    accumulator = _StatsAccumulator()
    for pair in pairs:
        accumulator.add(pair)
    return accumulator.stats()


class _Collector:
    """One configuration's corpus, built from its decisions as they arrive.

    Tallies the drops, drops repeated (complex, simple) pairs under
    ``dedup``, and accumulates the statistics of each kept pair.
    """

    def __init__(self, config: SelectorConfig, profile: LanguageProfile) -> None:
        self.config = config
        self.lang = profile.lang_code
        self.tally = DropTally()
        self.kept: list[LabeledPair] = []
        self.seen: set[tuple[str, str]] = set()
        self.stats = _StatsAccumulator()

    def add(self, decision: Decision) -> None:
        self.tally.n_input += 1
        if not isinstance(decision, str) and self.config.dedup:
            key = (decision[0].complex, decision[0].simple)
            if key in self.seen:
                decision = "dropped_duplicate"
            self.seen.add(key)
        if isinstance(decision, str):
            _count_drop(self.tally, decision)
        else:
            pair, tokens = decision
            self.kept.append(pair)
            self.stats.add(pair, tokens)

    def corpus(self) -> SimplificationCorpus:
        self.tally.n_kept = len(self.kept)
        return SimplificationCorpus(
            pairs=self.kept,
            lang=self.lang,
            config_snapshot=self.config,
            stats=self.stats.stats(),
            drop_tally=self.tally,
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
    collector = _Collector(config, profile)
    for decision in _map(partial(_select, config, profile), pairs, workers):
        collector.add(decision)
    return collector.corpus()


ABLATION_VARIANTS = ("pseudo", "no_bleu", "no_fres", "full")


def _score_all(profile: LanguageProfile, pair: SentencePair) -> tuple[SentencePair, Scores]:
    source_tokens = metric_tokens(pair.source_sentence)
    translated_tokens = metric_tokens(pair.translated_sentence)
    return pair, (
        source_tokens,
        translated_tokens,
        _sentence_bleu(translated_tokens, source_tokens),
        _safe_fres(pair.source_sentence, profile),
        _safe_fres(pair.translated_sentence, profile),
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
    collectors = {
        "pseudo": _Collector(replace(base, enable_bleu=False, enable_fres=False), profile),
        "no_bleu": _Collector(replace(base, enable_bleu=False, enable_fres=True), profile),
        "no_fres": _Collector(replace(base, enable_bleu=True, enable_fres=False), profile),
        "full": _Collector(replace(base, enable_bleu=True, enable_fres=True), profile),
    }
    # Score each pair once; every variant then decides on those scores.
    pairs = generate_pseudo_pairs(bitext_targets, translations)
    for pair, scores in _map(partial(_score_all, profile), pairs, workers):
        for collector in collectors.values():
            collector.add(_select(collector.config, profile, pair, scores))
    return {name: collector.corpus() for name, collector in collectors.items()}


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
