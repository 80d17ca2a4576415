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

One decide loop serves ``build`` and ``ablate``. It reads the input a chunk
of CHUNK_SIZE pairs at a time, gives each side of a pair one record that
computes the sentence's 13a tokens, readability counts and scores on first
use and keeps them, and decides the pair for every configuration in one
call: ``build`` has one configuration, and ``ablate`` its four variants,
which score every pair fully so that their kept pairs carry all three
scores and share one kept record. So a sentence is tokenized and counted at
most once per scheme, whatever the number of variants, and no token list
outlives its chunk. A chunk's decisions are one reply of plain tuples, sets
and counts, which ``--workers`` computes in worker processes; the replies
are merged in input order, each configuration handing a chunk's kept pairs
to its sink in one call: a list, or a corpus writer that streams them to
disk.
"""

from __future__ import annotations

import math
import random
import unicodedata
from collections import deque
from contextlib import closing
from dataclasses import dataclass, replace
from functools import partial
from itertools import chain, count, islice, starmap, zip_longest
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

# Pairs per chunk: the unit of deciding, of work sent to a worker process and
# of writing. Chunks of 64 pairs measured as fast as larger ones and hold less.
CHUNK_SIZE = 64


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
    """Takes kept pairs a chunk at a time, in input order: a list, or an ``ingest.CorpusWriter``."""

    def extend(self, pairs: list[LabeledPair]) -> None: ...


def _aligned(bitext_targets: Iterable[str], translations: Iterable[str]) -> Iterator[tuple]:
    """The line-aligned streams as ``(target, translation)`` tuples; unequal lengths are errors."""
    sides = zip_longest(bitext_targets, translations, fillvalue=_SENTINEL)
    for index, pair in enumerate(sides):
        if _SENTINEL in pair:
            longer = index + 1 + sum(1 for _ in sides)
            n_targets, n_translations = (index, longer) if pair[0] is _SENTINEL else (longer, index)
            raise ValueError(
                "aligned streams differ in length: "
                f"{n_targets} target lines vs {n_translations} translation lines"
            )
        yield pair


def generate_pseudo_pairs(
    bitext_targets: Iterable[str], translations: Iterable[str]
) -> Iterator[SentencePair]:
    """Pair the two line-aligned streams, one SentencePair per line, unfiltered."""
    for index, (target, translation) in enumerate(_aligned(bitext_targets, translations)):
        yield SentencePair(target, translation, index)


def _select(
    configs: Sequence[SelectorConfig], index: int, source: _Side, translated: _Side
) -> tuple[list[tuple[tuple, _Side, _Side]], list[Union[int, str]]]:
    """Run the enabled selectors on a pair for each configuration, in the module docstring's order.

    Every score is read from the records of the pair's sides, which compute
    it when a check first reaches it. Returns the pair's kept records, each
    its LabeledPair fields as a tuple with the records of its complex and
    simple sides, at most one unlabeled and one labeled that configurations
    share, and per configuration the position of its kept record or the
    name of the DropTally field that counts its drop.
    """
    nfc = unicodedata.normalize
    identical = nfc("NFC", source.text) == nfc("NFC", translated.text)  # for every configuration
    kept: list[tuple[tuple, _Side, _Side]] = []
    decisions: list[Union[int, str]] = []
    positions: dict[bool, int] = {}  # whether labeled -> position in kept
    for config in configs:
        bleu, fres = config.enable_bleu, config.enable_fres
        if bleu and config.drop_identity and identical:
            decisions.append("dropped_identity")
        elif bleu and translated.score_bleu(source) < config.h_bleu:
            decisions.append("dropped_bleu")
        elif fres and (source.score_fres() is None or translated.score_fres() is None):
            decisions.append("dropped_no_words")
        elif fres and abs(translated.fres - source.fres) < config.h_fres:
            decisions.append("dropped_fres")
        elif fres and identical:
            decisions.append("dropped_identity")
        elif fres in positions:
            decisions.append(positions[fres])
        else:
            complex_side, simple_side, provenance, gap = source, translated, "unlabeled", 0.0
            if fres:
                gap = translated.fres - source.fres
                # The side with the higher reading-ease score is the simple one.
                if translated.fres >= source.fres:
                    provenance = "translated"
                else:  # negating the gap is exact: a - b == -(b - a)
                    complex_side, simple_side, provenance, gap = translated, source, "source", -gap
            row = (complex_side.text, simple_side.text, gap, provenance, index, translated.bleu)
            row += (complex_side.fres, simple_side.fres)
            positions[fres] = len(kept)
            decisions.append(len(kept))
            kept.append((row, complex_side, simple_side))
    return kept, decisions


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
        kept, (decision,) = _select((config,), pair.index, source, translated)
        if kept:
            yield pair, LabeledPair(*kept[decision][0])
        elif tally is not None:
            setattr(tally, decision, getattr(tally, decision) + 1)


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


def _decide_chunk(
    configs: Sequence[SelectorConfig], profile: LanguageProfile, score_all: bool, start: int,
    chunk: list[tuple[str, str]],
) -> tuple[list[tuple], list[tuple[int, int]], list[tuple]]:
    """Decide ``(target, translation)`` pairs numbered from ``start`` for every configuration.

    With ``score_all``, every kept pair carries all three scores. Returns the
    chunk's kept pairs as LabeledPair field tuples with their (complex,
    simple) word counts, and per configuration a record: its drop counts by
    DropTally field, the positions of its kept pairs, and their vocabulary.
    """
    rows, words, complex_tokens, simple_tokens = [], [], [], []
    drops: list[dict[str, int]] = [{} for _ in configs]
    positions: list[list[int]] = [[] for _ in configs]
    for index, (target, translation) in enumerate(chunk, start):
        source, translated = _Side(target, profile), _Side(translation, profile)
        if score_all:
            translated.score_bleu(source)
            source.score_fres()
            translated.score_fres()
        kept, decisions = _select(configs, index, source, translated)
        first = len(rows)
        for row, complex_side, simple_side in kept:
            rows.append(row)
            words.append((complex_side.n_words(), simple_side.n_words()))
            complex_tokens.append(complex_side.tokens())
            simple_tokens.append(simple_side.tokens())
        for config_drops, config_positions, decision in zip(drops, positions, decisions):
            if isinstance(decision, int):
                config_positions.append(first + decision)
            else:
                config_drops[decision] = config_drops.get(decision, 0) + 1
    token_lists = (complex_tokens, simple_tokens)
    vocab = [
        [set(chain.from_iterable(map(tokens.__getitem__, kept_rows))) for tokens in token_lists]
        for kept_rows in positions
    ]
    return rows, words, list(zip(drops, positions, vocab))


def _replies(decide: Callable, chunks: Iterable[tuple], workers: int) -> Iterator:
    """``decide(*chunk)`` for each chunk, in input order.

    Several workers are fed by the calling thread, so no thread of the pool
    reads the input, and at most two chunks per worker wait.
    """
    if workers <= 1:
        yield from starmap(decide, chunks)
        return
    from multiprocessing import get_context  # not for one worker: it loads socket and pickle

    waiting: deque = deque()
    with get_context("spawn").Pool(workers) as pool:
        for chunk in chunks:
            waiting.append(pool.apply_async(decide, chunk))
            if len(waiting) > 2 * workers:
                yield waiting.popleft().get()
        while waiting:
            yield waiting.popleft().get()


class _Collector:
    """A corpus's drop tally and statistics, merged from chunk records in input order.

    Drops repeated (complex, simple) pairs under ``dedup`` and hands each
    chunk's kept pairs to ``sink`` in one call.
    """

    def __init__(self, sink: Optional[Sink], dedup: bool = False) -> None:
        self.sink, self.dedup = sink, dedup
        self.tally = DropTally()
        self.seen: set[bytes] = set()
        if dedup:
            # Imported only here: hashlib loads OpenSSL, several MiB of memory.
            from hashlib import blake2b

            self.blake2b = blake2b
        self.vocab_complex: set[str] = set()
        self.vocab_simple: set[str] = set()
        self.words_complex = self.words_simple = 0

    def _unseen(self, pair: LabeledPair) -> bool:
        # 16 bytes stand in for both strings; the length prefix marks where one ends.
        text = f"{len(pair.complex)}:{pair.complex}{pair.simple}"
        key = self.blake2b(text.encode("utf-8", "surrogatepass"), digest_size=16).digest()
        if key in self.seen:
            return False
        self.seen.add(key)
        return True

    def merge(
        self, pairs: Sequence[LabeledPair], words: list[tuple[int, int]], record: tuple
    ) -> None:
        """Fold in one chunk's record; ``pairs`` and ``words`` are the chunk's kept pairs."""
        drops, kept, (vocab_complex, vocab_simple) = record
        tally = self.tally
        tally.n_input += len(kept) + sum(drops.values())
        for reason, count in drops.items():
            setattr(tally, reason, getattr(tally, reason) + count)
        if self.dedup:
            # A duplicate repeats a kept pair, so its tokens are in the vocabulary already.
            unseen = [i for i in kept if self._unseen(pairs[i])]
            tally.dropped_duplicate += len(kept) - len(unseen)
            kept = unseen
        if self.sink is not None:
            self.sink.extend([pairs[i] for i in kept])
        tally.n_kept += len(kept)
        self.vocab_complex |= vocab_complex
        self.vocab_simple |= vocab_simple
        self.words_complex += sum([words[i][0] for i in kept])
        self.words_simple += sum([words[i][1] for i in kept])

    def stats(self) -> CorpusStats:
        total = self.tally.n_kept
        return CorpusStats(
            vocab_complex=len(self.vocab_complex),
            vocab_simple=len(self.vocab_simple),
            avg_len_complex=self.words_complex / total if total else 0.0,
            avg_len_simple=self.words_simple / total if total else 0.0,
            total_pairs=total,
        )


def compute_corpus_stats(
    pairs: Iterable[LabeledPair], profile: LanguageProfile, sink: Optional[Sink] = None
) -> CorpusStats:
    """Distinct-token vocabulary and mean word length per side, in one pass over ``pairs``.

    The pairs are also handed to ``sink``, a chunk at a time, when one is given.
    """
    collector = _Collector(sink)
    pairs = iter(pairs)
    while chunk := list(islice(pairs, CHUNK_SIZE)):
        sides = [(pair.complex, pair.simple) for pair in chunk]
        words = [(len(tokenize_words(c).tokens), len(tokenize_words(s).tokens)) for c, s in sides]
        vocab = [set(chain.from_iterable(map(metric_tokens, side))) for side in zip(*sides)]
        collector.merge(chunk, words, ({}, range(len(chunk)), vocab))
    return collector.stats()


def _build(
    bitext_targets: Iterable[str],
    translations: Iterable[str],
    configs: Sequence[SelectorConfig],
    profile: LanguageProfile,
    workers: int,
    score_all: bool,
    sinks: Sequence[Optional[Sink]],
) -> list[SimplificationCorpus]:
    """Decide the pairs a chunk at a time and hand each configuration's kept pairs to its sink.

    Returns one corpus per configuration, whose ``pairs`` are its kept pairs if it has no sink.
    """
    kept: list[list[LabeledPair]] = [[] for _ in configs]  # filled where no sink is given
    collectors = [
        _Collector(pairs if sink is None else sink, config.dedup)
        for config, sink, pairs in zip(configs, sinks, kept)
    ]
    decide = partial(_decide_chunk, configs, profile, score_all)
    aligned = _aligned(bitext_targets, translations)
    # (index of the first pair, pairs) per chunk; only the last chunk can be short.
    chunks = zip(count(0, CHUNK_SIZE), iter(lambda: list(islice(aligned, CHUNK_SIZE)), []))
    with closing(_replies(decide, chunks, workers)) as replies:
        for rows, words, records in replies:
            labeled = [LabeledPair(*row) for row in rows]
            for collector, record in zip(collectors, records):
                collector.merge(labeled, words, record)
    return [
        SimplificationCorpus(pairs, profile.lang_code, config, collector.stats(), collector.tally)
        for config, collector, pairs in zip(configs, collectors, kept)
    ]


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
    (corpus,) = _build(bitext_targets, translations, (config,), profile, workers, False, (sink,))
    return corpus


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
    variant_sinks = [None if sinks is None else sinks[name] for name in ABLATION_VARIANTS]
    corpora = _build(bitext_targets, translations, configs, profile, workers, True, variant_sinks)
    return dict(zip(ABLATION_VARIANTS, corpora))


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
