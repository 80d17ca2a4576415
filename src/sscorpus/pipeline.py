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

One decide loop serves ``build`` and ``ablate``. It gives each side of a
pair one record that computes the sentence's 13a tokens, readability counts
and scores on first use and keeps them, then decides the pair once per
configuration from those records: ``build`` has one configuration, and
``ablate`` has its four variants, which score every pair fully so that each
variant's kept pairs carry all three scores. The records are the only place
a pair's scores live, and BLEU, reading ease and the corpus statistics all
read them, so a sentence is tokenized and counted at most once per scheme,
whatever the number of variants, and a build holds no token lists past the
pair they belong to.

Each configuration hands its kept pairs, in input order, to a sink: a list,
or a corpus writer that streams them to disk and keeps none in memory.
"""

from __future__ import annotations

import math
import random
import unicodedata
from dataclasses import dataclass, replace
from functools import partial
from itertools import zip_longest
from typing import Callable, Iterable, Iterator, Mapping, Optional, Protocol, Sequence, Union

from .metrics import MAX_NGRAM_ORDER, _fres_formula, _token_bleu
from .textprep import (
    LanguageProfile,
    TextStats,
    get_profile,
    metric_tokens,
    text_stats,
    tokenize_words,
)

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
        if not 0.0 <= self.h_fres < math.inf:
            raise ValueError(f"h_fres must be finite and >= 0, got {self.h_fres}")


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
    """A corpus with its statistics; ``pairs`` is empty when a caller passed its own sink."""

    pairs: list[LabeledPair]
    lang: str
    config_snapshot: SelectorConfig
    stats: CorpusStats
    drop_tally: Optional[DropTally] = None


class _Side:
    """One sentence of a pair, with its 13a tokens, readability counts and scores.

    Each is computed on first use and then kept, so every check, every
    variant and the corpus statistics share one computation per scheme.
    ``fres`` holds the reading ease, and the translated side's ``bleu`` its
    sentence BLEU against the source side; each is None until scored (and
    ``fres`` stays None without countable words). Scores passed in are kept.
    """

    __slots__ = ("text", "profile", "fres", "bleu", "_tokens", "_stats")

    def __init__(
        self, text: str, profile: Optional[LanguageProfile], fres: Optional[float] = None,
        bleu: Optional[float] = None,
    ) -> None:
        self.text = text
        self.profile = profile
        self.fres = fres
        self.bleu = bleu
        self._tokens: Optional[list[str]] = None
        self._stats: Optional[TextStats] = None

    def tokens(self) -> list[str]:
        if self._tokens is None:
            self._tokens = metric_tokens(self.text)
        return self._tokens

    def score_fres(self) -> Optional[float]:
        """Reading ease, or None when the sentence has no countable words."""
        if self.fres is None and self._stats is None:
            self._stats = text_stats(self.text, self.profile)
            if self._stats.n_words:
                self.fres = _fres_formula(self.profile, *self._stats)
        return self.fres

    def score_bleu(self, reference: _Side) -> float:
        """Sentence BLEU of this sentence against ``reference``."""
        if self.bleu is None:
            self.bleu = _token_bleu([(self.tokens(), [reference.tokens()])], MAX_NGRAM_ORDER, True)
        return self.bleu

    def n_words(self) -> int:
        # The readability counts hold the word count once a check has made them.
        if self._stats is None:
            return len(tokenize_words(self.text).tokens)
        return self._stats.n_words


class Sink(Protocol):
    """Takes each kept pair in input order: a list, or an ``ingest.CorpusWriter``."""

    def append(self, pair: LabeledPair) -> None: ...


# What the selector returns for one pair: the kept pair with the records of
# its complex and simple sides, or the name of the DropTally field that
# counts its drop.
Decision = Union[tuple[LabeledPair, _Side, _Side], str]


def generate_pseudo_pairs(
    bitext_targets: Iterable[str], translations: Iterable[str]
) -> Iterator[SentencePair]:
    """Pair the two line-aligned streams, one SentencePair per line, unfiltered."""
    sides = zip_longest(bitext_targets, translations, fillvalue=_SENTINEL)
    for index, (target, translation) in enumerate(sides):
        if target is _SENTINEL or translation is _SENTINEL:
            longer = index + 1 + sum(1 for _ in sides)
            n_targets, n_translations = (index, longer) if target is _SENTINEL else (longer, index)
            raise ValueError(
                "aligned streams differ in length: "
                f"{n_targets} target lines vs {n_translations} translation lines"
            )
        yield SentencePair(target, translation, index)


def _is_identity(source: _Side, translated: _Side) -> bool:
    return unicodedata.normalize("NFC", source.text) == unicodedata.normalize("NFC", translated.text)


def _select(config: SelectorConfig, index: int, source: _Side, translated: _Side) -> Decision:
    """Run the enabled selectors on one pair, in the order the module docstring gives.

    Every score is read from the records of the pair's ``source`` and
    ``translated`` sides, which compute it when a check first reaches it;
    the kept pair carries the scores the records hold at that point.
    """
    if config.enable_bleu:
        if config.drop_identity and _is_identity(source, translated):
            return "dropped_identity"
        if translated.score_bleu(source) < config.h_bleu:
            return "dropped_bleu"
    complex_side, simple_side, provenance, gap = source, translated, "unlabeled", 0.0
    if config.enable_fres:
        fres_source, fres_translated = source.score_fres(), translated.score_fres()
        if fres_source is None or fres_translated is None:
            return "dropped_no_words"
        gap = fres_translated - fres_source
        if abs(gap) < config.h_fres:
            return "dropped_fres"
        if _is_identity(source, translated):
            return "dropped_identity"
        # The side with the higher reading-ease score is the simple one.
        if fres_translated >= fres_source:
            provenance = "translated"
        else:  # negating the gap is exact: a - b == -(b - a)
            complex_side, simple_side, provenance, gap = translated, source, "source", -gap
    kept = LabeledPair(
        complex_side.text, simple_side.text, gap, provenance, index,
        translated.bleu, complex_side.fres, simple_side.fres,
    )
    return kept, complex_side, simple_side


def _decide(
    configs: Sequence[SelectorConfig],
    profile: Optional[LanguageProfile],
    score_all: bool,
    pair: SentencePair,
) -> list[Decision]:
    """Decide ``pair`` once per configuration, all from the same two records.

    With ``score_all``, the records are given the BLEU and both reading-ease
    scores first, so every kept pair carries all three.
    """
    source = _Side(pair.source_sentence, profile)
    translated = _Side(pair.translated_sentence, profile)
    if score_all:
        translated.score_bleu(source)
        source.score_fres()
        translated.score_fres()
    return [_select(config, pair.index, source, translated) for config in configs]


def _count_drop(tally: Optional[DropTally], reason: str) -> None:
    if tally is not None:
        setattr(tally, reason, getattr(tally, reason) + 1)


def _selected(
    pairs: Iterable[SentencePair],
    config: SelectorConfig,
    profile: Optional[LanguageProfile],
    tally: Optional[DropTally],
) -> Iterator[tuple[SentencePair, LabeledPair]]:
    """Each input pair that ``config`` keeps, with its kept form; drops are tallied."""
    for pair in pairs:
        source = _Side(pair.source_sentence, profile, pair.fres_source)
        translated = _Side(pair.translated_sentence, profile, pair.fres_translated, pair.bleu)
        decision = _select(config, pair.index, source, translated)
        if isinstance(decision, str):
            _count_drop(tally, decision)
        else:
            yield pair, decision[0]


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
    for pair, kept in _selected(pairs, replace(config, enable_fres=False), None, tally):
        yield replace(pair, bleu=kept.bleu)


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
    for _, kept in _selected(pairs, replace(config, enable_bleu=False), profile, tally):
        yield kept


def _map(func: Callable, pairs: Iterable[SentencePair], workers: int) -> Iterator:
    if workers <= 1:
        yield from map(func, pairs)
        return
    # Imported only here: multiprocessing loads socket and pickle, memory a
    # one-worker run has no use for.
    from multiprocessing import Pool

    # imap preserves input order, so the merged stream is bit-identical to
    # the single-worker run regardless of scheduling.
    with Pool(workers) as pool:
        yield from pool.imap(func, pairs, chunksize=256)


class _Collector:
    """One configuration's corpus, built from its decisions as they arrive.

    Tallies the drops, drops repeated (complex, simple) pairs under
    ``dedup``, hands each kept pair to ``sink``, and folds its vocabulary
    and word counts in from the records of its sides.
    """

    def __init__(
        self, config: SelectorConfig, profile: LanguageProfile, sink: Optional[Sink] = None
    ) -> None:
        self.config = config
        self.lang = profile.lang_code
        self.sink = sink
        self.tally = DropTally()
        self.seen: set[bytes] = set()
        if config.dedup:
            # Imported only here: hashlib loads OpenSSL, several MiB of memory.
            from hashlib import blake2b

            self.blake2b = blake2b
        self.vocab_complex: set[str] = set()
        self.vocab_simple: set[str] = set()
        self.words_complex = 0
        self.words_simple = 0

    def add(self, decision: Decision) -> None:
        self.tally.n_input += 1
        if isinstance(decision, str):
            _count_drop(self.tally, decision)
            return
        pair, complex_side, simple_side = decision
        if self.config.dedup:
            # 16 bytes stand in for both strings; the length prefix marks where one ends.
            text = f"{len(pair.complex)}:{pair.complex}{pair.simple}"
            key = self.blake2b(text.encode("utf-8", "surrogatepass"), digest_size=16).digest()
            if key in self.seen:
                self.tally.dropped_duplicate += 1
                return
            self.seen.add(key)
        if self.sink is not None:
            self.sink.append(pair)
        self.tally.n_kept += 1
        self.vocab_complex.update(complex_side.tokens())
        self.vocab_simple.update(simple_side.tokens())
        self.words_complex += complex_side.n_words()
        self.words_simple += simple_side.n_words()

    def corpus(self) -> SimplificationCorpus:
        total = self.tally.n_kept
        stats = CorpusStats(
            vocab_complex=len(self.vocab_complex),
            vocab_simple=len(self.vocab_simple),
            avg_len_complex=self.words_complex / total if total else 0.0,
            avg_len_simple=self.words_simple / total if total else 0.0,
            total_pairs=total,
        )
        return SimplificationCorpus([], self.lang, self.config, stats, self.tally)


def compute_corpus_stats(
    pairs: Iterable[LabeledPair], profile: LanguageProfile, sink: Optional[Sink] = None
) -> CorpusStats:
    """Distinct-token vocabulary and mean word length per side, in one pass over ``pairs``.

    Each pair is also handed to ``sink`` when one is given.
    """
    collector = _Collector(SelectorConfig(), profile, sink)
    for pair in pairs:
        collector.add((pair, _Side(pair.complex, profile), _Side(pair.simple, profile)))
    return collector.corpus().stats


def _build(
    bitext_targets: Iterable[str],
    translations: Iterable[str],
    configs: Sequence[SelectorConfig],
    profile: LanguageProfile,
    workers: int,
    score_all: bool,
    sinks: Sequence[Sink],
) -> list[SimplificationCorpus]:
    """Decide each generated pair once per configuration and hand its kept pairs to its sink.

    Returns one corpus per configuration, without pairs.
    """
    collectors = [_Collector(config, profile, sink) for config, sink in zip(configs, sinks)]
    pairs = generate_pseudo_pairs(bitext_targets, translations)
    for decisions in _map(partial(_decide, configs, profile, score_all), pairs, workers):
        for collector, decision in zip(collectors, decisions):
            collector.add(decision)
    return [collector.corpus() for collector in collectors]


def build_corpus(
    bitext_targets: Iterable[str],
    translations: Iterable[str],
    config: SelectorConfig,
    profile: LanguageProfile,
    workers: int = 1,
    sink: Optional[Sink] = None,
) -> SimplificationCorpus:
    """Generate, score, filter, and label; returns the corpus plus drop tallies.

    The kept pairs are collected in the corpus's ``pairs`` list, or, with a
    ``sink``, handed to it as they are decided; ``pairs`` is then empty.
    """
    kept: list[LabeledPair] = []
    sinks = (kept if sink is None else sink,)
    (corpus,) = _build(bitext_targets, translations, (config,), profile, workers, False, sinks)
    return replace(corpus, pairs=kept)


ABLATION_VARIANTS = ("pseudo", "no_bleu", "no_fres", "full")


def ablate(
    bitext_targets: Iterable[str],
    translations: Iterable[str],
    profile: LanguageProfile,
    config: Optional[SelectorConfig] = None,
    workers: int = 1,
    sinks: Optional[Mapping[str, Sink]] = None,
) -> dict[str, SimplificationCorpus]:
    """Build the four selector variants from one shared scoring pass.

    Returns corpora keyed "pseudo" (no selectors), "no_bleu" (ease selector
    only), "no_fres" (BLEU selector only), and "full". With ``sinks``, keyed
    the same way, each variant's kept pairs go to its sink and its corpus
    has no ``pairs``.
    """
    base = config or SelectorConfig()
    configs = (
        replace(base, enable_bleu=False, enable_fres=False),
        replace(base, enable_bleu=False, enable_fres=True),
        replace(base, enable_bleu=True, enable_fres=False),
        replace(base, enable_bleu=True, enable_fres=True),
    )
    kept: dict[str, list[LabeledPair]] = {name: [] for name in ABLATION_VARIANTS}
    targets = kept if sinks is None else sinks
    variant_sinks = [targets[name] for name in ABLATION_VARIANTS]
    corpora = _build(bitext_targets, translations, configs, profile, workers, True, variant_sinks)
    return {
        name: replace(corpus, pairs=kept[name])
        for name, corpus in zip(ABLATION_VARIANTS, corpora)
    }


def sample(pairs: Iterable[LabeledPair], total: int, n: int, seed: int) -> Iterator[LabeledPair]:
    """Stream a deterministic random sample of n of the ``total`` pairs, in their order."""
    if n > total:
        raise ValueError(f"cannot sample {n} pairs from a corpus of {total}")
    chosen = set(random.Random(seed).sample(range(total), n))
    return (pair for position, pair in enumerate(pairs) if position in chosen)


def subset(corpus: SimplificationCorpus, n: int, seed: int) -> SimplificationCorpus:
    """Deterministic random sample of n pairs, preserving relative order."""
    pairs = list(sample(corpus.pairs, len(corpus.pairs), n, seed))
    return SimplificationCorpus(
        pairs=pairs,
        lang=corpus.lang,
        config_snapshot=corpus.config_snapshot,
        stats=compute_corpus_stats(pairs, get_profile(corpus.lang)),
        drop_tally=None,
    )
