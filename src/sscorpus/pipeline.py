"""Corpus construction: pseudo-pair generation, the selectors, and labeling.

A pseudo pair joins a trusted sentence with the machine translation of its
bridge-language counterpart. One function decides every pair. It runs the
enabled checks in this order and stops at the first that drops the pair:

1. BLEU selector: exact copies (equal after NFC normalization) when
   ``drop_identity`` is set, then sentence BLEU of the translation against
   the trusted sentence below ``h_bleu``;
2. reading-ease selector: a side with no countable words, then an ease gap
   below ``h_fres``, then identical sides (never labeled, even at
   ``h_fres`` = 0). Survivors are labeled with the easier side as the
   simple one (the translation on a tie).

A score is computed only when a check reaches it, so a kept pair carries the
scores of the enabled selectors and the others stay None (empty in TSV).
The decision depends on nothing but the pair and the configuration, so
filtering is order-stable, idempotent, and safe to fan out across workers.

One decide loop serves ``build``, ``ablate`` and the two selectors. It decides
CHUNK_SIZE pairs at a time, check by check, for every configuration at once
(``ablate`` has four), each check over the pairs some configuration has not yet
decided. With several configurations every pair is scored fully, since kept
records are shared and carry all three scores. A sentence is tokenized and
counted at most once per scheme, and no token list outlives its chunk. A
chunk's reply of plain tuples, sets and counts may come from a ``--workers``
process; replies are merged in input order, and each configuration hands a
chunk's kept pairs to its sink (a list, or a streaming corpus writer) in one call.
"""

from __future__ import annotations

import math
import os
import random
import unicodedata
from collections import deque
from contextlib import closing
from dataclasses import dataclass, replace
from functools import partial
from itertools import chain, count, islice, zip_longest
from typing import Callable, Iterable, Iterator, Mapping, Optional, Protocol, Sequence

from .metrics import _fres_formula, _pair_bleu
from .textprep import LanguageProfile, metric_tokens, text_stats, tokenize_words

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
        for name in ("h_bleu", "h_fres"):
            # bool is an int, and 0.0 <= True <= 100.0 would let a JSON true through.
            if isinstance(value := getattr(self, name), bool) or not isinstance(value, (int, float)):
                raise ValueError(f"{name} must be a number, got {value!r}")
        if not 0.0 <= self.h_bleu <= 100.0:
            raise ValueError(f"h_bleu must be in [0, 100], got {self.h_bleu}")
        if not 0.0 <= self.h_fres < math.inf:
            raise ValueError(f"h_fres must be finite and >= 0, got {self.h_fres}")
        for name in ("enable_bleu", "enable_fres", "drop_identity", "dedup"):
            if not isinstance(value := getattr(self, name), bool):
                raise ValueError(f"{name} must be true or false, got {value!r}")


@dataclass
class LabeledPair:
    """A kept pair with the easier side labeled simple, the translation on a tie.

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


def _decide(
    configs: Sequence[SelectorConfig], profile: Optional[LanguageProfile],
    chunk: list[tuple[str, str]], scores: Optional[list[tuple]] = None,
) -> tuple[list[tuple], list[tuple], list, list]:
    """Decide ``(source, translation)`` pairs for every configuration.

    Runs each check of the module docstring once, over the pairs some
    configuration has not yet decided. ``scores`` holds each pair's given
    (BLEU, source ease, translation ease); a score that is not None is kept.
    Side 2j is pair j's source and 2j + 1 its translation. Returns four lists:
    the kept records as LabeledPair field tuples, at most one unlabeled and one
    labeled per pair, with the complex side (pair ``side // 2``, simple side
    ``side ^ 1``) as the fifth field; per configuration its drop counts by
    DropTally field and its kept records' positions, in input order; and per
    side its 13a tokens and readability counts, or None where no check made them.
    """
    n = len(chunk)
    texts = [text for pair in chunk for text in pair]
    nfc = unicodedata.normalize
    identical = [nfc("NFC", source) == nfc("NFC", translation) for source, translation in chunk]
    bleu, fres = [None] * n, [None] * (2 * n)
    if scores is not None:
        bleu = [score[0] for score in scores]
        fres = [ease for score in scores for ease in score[1:]]
    tokens, stats = [None] * (2 * n), [None] * (2 * n)
    undecided = [range(n)] * len(configs)
    drops: list[dict[str, int]] = [{} for _ in configs]

    def keep(i: int, reason: str, survivors: list[int]) -> None:
        # Configuration i keeps deciding only ``survivors``; the others count as ``reason``.
        if len(survivors) < len(undecided[i]):
            drops[i][reason] = drops[i].get(reason, 0) + len(undecided[i]) - len(survivors)
        undecided[i] = survivors

    def reached(check: str) -> Sequence[int]:
        if len(configs) > 1:  # the shared kept records carry every score
            return range(n)
        return undecided[0] if getattr(configs[0], check) else ()

    for i, config in enumerate(configs):
        if config.enable_bleu and config.drop_identity:
            keep(i, "dropped_identity", [j for j in undecided[i] if not identical[j]])
    for j in reached("enable_bleu"):
        if bleu[j] is None:
            tokens[2 * j] = reference = metric_tokens(texts[2 * j])
            tokens[2 * j + 1] = hypothesis = metric_tokens(texts[2 * j + 1])
            bleu[j] = _pair_bleu(hypothesis, reference)
    for i, config in enumerate(configs):
        if config.enable_bleu:
            keep(i, "dropped_bleu", [j for j in undecided[i] if not bleu[j] < config.h_bleu])
    for side in [side for j in reached("enable_fres") for side in (2 * j, 2 * j + 1)]:
        if fres[side] is None:
            stats[side] = counts = text_stats(texts[side], profile)
            if counts.n_words:
                fres[side] = _fres_formula(profile, *counts)
    for i, config in enumerate(configs):
        if config.enable_fres:
            keep(i, "dropped_no_words", [
                j for j in undecided[i] if fres[2 * j] is not None and fres[2 * j + 1] is not None
            ])
            keep(i, "dropped_fres", [
                j for j in undecided[i] if not abs(fres[2 * j + 1] - fres[2 * j]) < config.h_fres
            ])
            keep(i, "dropped_identity", [j for j in undecided[i] if not identical[j]])

    rows: list[tuple] = []
    slots = {False: [None] * n, True: [None] * n}  # whether labeled -> per pair its kept record
    for i, config in enumerate(configs):
        labeled, slot = config.enable_fres, slots[config.enable_fres]
        for j in undecided[i]:
            if slot[j] is None:
                # The side with the higher reading ease is simple; a tie goes to the translation.
                swap = labeled and fres[2 * j] > fres[2 * j + 1]
                side = 2 * j + swap
                provenance = "source" if swap else "translated" if labeled else "unlabeled"
                gap = fres[side ^ 1] - fres[side] if labeled else 0.0
                slot[j] = len(rows)
                rows.append((
                    texts[side], texts[side ^ 1], gap, provenance, side, bleu[j],
                    fres[side], fres[side ^ 1],
                ))
    records = [(drops[i], [slots[config.enable_fres][j] for j in undecided[i]])
               for i, config in enumerate(configs)]
    return rows, records, tokens, stats


def _selected(
    pairs: Iterable[SentencePair],
    config: SelectorConfig,
    profile: Optional[LanguageProfile],
    tally: Optional[DropTally],
) -> Iterator[tuple[SentencePair, LabeledPair]]:
    """Each input pair that ``config`` keeps, with its kept form; drops are tallied.

    Pairs are decided CHUNK_SIZE at a time, so up to a chunk is read ahead.
    """
    pairs = iter(pairs)
    while chunk := list(islice(pairs, CHUNK_SIZE)):
        texts = [(pair.source_sentence, pair.translated_sentence) for pair in chunk]
        scores = [(pair.bleu, pair.fres_source, pair.fres_translated) for pair in chunk]
        rows, ((drops, positions),), _, _ = _decide((config,), profile, texts, scores)
        if tally is not None:
            for reason, n_dropped in drops.items():
                setattr(tally, reason, getattr(tally, reason) + n_dropped)
        for row in map(rows.__getitem__, positions):
            pair = chunk[row[4] // 2]
            yield pair, LabeledPair(*row[:4], pair.index, *row[5:])


def bleu_selector(
    pairs: Iterable[SentencePair],
    config: SelectorConfig,
    tally: Optional[DropTally] = None,
) -> Iterator[SentencePair]:
    """Keep pairs whose translation scores >= h_bleu against the source.

    Exact copies (equal after NFC normalization) are dropped first when
    ``drop_identity`` is set. Survivors are copies that carry their BLEU
    score; the input pairs are not changed, and input order is preserved.
    Only drop counts are added to ``tally``: its ``n_input`` and ``n_kept`` stay 0.
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

    Pairs with a side that has no countable words are dropped, not raised;
    pairs with identical sides are never labeled (relevant only at h_fres = 0,
    where the zero gap would otherwise pass). Only drop counts are added to
    ``tally``, as in :func:`bleu_selector`: its ``n_input`` and ``n_kept`` stay 0.
    """
    if not config.enable_fres:
        raise ValueError("fres_selector called with enable_fres=False")
    for _, kept in _selected(pairs, replace(config, enable_bleu=False), profile, tally):
        yield kept


def _decide_chunk(
    configs: Sequence[SelectorConfig], profile: LanguageProfile, chunk: list[tuple[str, str]]
) -> tuple[list[tuple], list[tuple[int, int]], list[tuple]]:
    """Decide ``(target, translation)`` pairs for every configuration.

    Returns the chunk's kept pairs as ``_decide``'s LabeledPair field tuples
    with their (complex, simple) word counts, and per configuration a record:
    its drop counts by DropTally field, the positions of its kept pairs, and
    each side's vocabulary.
    """
    rows, decided, tokens, stats = _decide(configs, profile, chunk)
    texts = [text for pair in chunk for text in pair]
    n_words = {}
    for side in {row[4] ^ simple for row in rows for simple in (0, 1)}:
        if tokens[side] is None:
            tokens[side] = metric_tokens(texts[side])
        # The readability counts hold the word count once a check has made them.
        counts = stats[side]
        n_words[side] = len(tokenize_words(texts[side]).tokens) if counts is None else counts.n_words
    words = [(n_words[row[4]], n_words[row[4] ^ 1]) for row in rows]
    records = [
        (drops, positions, *(
            set().union(*[tokens[rows[k][4] ^ simple] for k in positions]) for simple in (0, 1)
        ))
        for drops, positions in decided
    ]
    return rows, words, records


def _end_with_parent() -> None:
    """In a worker: exit once the process that started it is gone, even killed by SIGKILL."""
    from multiprocessing import parent_process
    from threading import Thread

    Thread(target=lambda: (parent_process().join(), os._exit(1)), daemon=True).start()


def _replies(decide: Callable, chunks: Iterable[list], workers: int) -> Iterator:
    """``decide(chunk)`` for each chunk, in input order.

    With several workers the calling thread reads the chunks and feeds them, at most two per
    worker waiting; a worker that dies raises ``BrokenProcessPool`` instead of hanging.
    """
    if workers <= 1:
        yield from map(decide, chunks)
        return
    # Not for one worker: these load socket, pickle and threading.
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context
    from signal import SIG_BLOCK, SIG_SETMASK, SIGINT, pthread_sigmask

    waiting: deque = deque()
    pool = ProcessPoolExecutor(workers, mp_context=get_context("spawn"), initializer=_end_with_parent)
    try:
        for chunk in chunks:
            # A worker started by a submit inherits the blocked SIGINT, so Ctrl-C reaches this
            # process alone, even while a worker starts, and unwinding here ends the workers.
            # The constructor has started multiprocessing's resource tracker: a tracker first
            # started inside the mask would unblock SIGINT and SIGTERM in this thread.
            mask = pthread_sigmask(SIG_BLOCK, {SIGINT})
            try:
                waiting.append(pool.submit(decide, chunk))
            finally:
                pthread_sigmask(SIG_SETMASK, mask)
            if len(waiting) > 2 * workers:
                yield waiting.popleft().result()
        while waiting:
            yield waiting.popleft().result()
    finally:  # on an error, chunks the pool has not yet queued for a worker are dropped
        pool.shutdown(cancel_futures=True)


class _Collector:
    """A corpus's kept pairs, drop tally and statistics, merged from chunk records in input order.

    Drops repeated (complex, simple) pairs under ``dedup`` and hands each
    chunk's kept pairs to ``sink`` in one call; given no sink, it keeps them in ``pairs``.
    """

    def __init__(self, sink: Optional[Sink], dedup: bool = False) -> None:
        self.pairs: list[LabeledPair] = []
        self.sink, self.dedup = self.pairs if sink is None else sink, dedup
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
        drops, kept, vocab_complex, vocab_simple = record
        tally = self.tally
        tally.n_input += len(kept) + sum(drops.values())
        for reason, count in drops.items():
            setattr(tally, reason, getattr(tally, reason) + count)
        if self.dedup:
            # A duplicate repeats a kept pair, so its tokens are in the vocabulary already.
            unseen = [i for i in kept if self._unseen(pairs[i])]
            tally.dropped_duplicate += len(kept) - len(unseen)
            kept = unseen
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

    def corpus(self, lang: str, config: SelectorConfig) -> SimplificationCorpus:
        return SimplificationCorpus(self.pairs, lang, config, self.stats(), self.tally)


def compute_corpus_stats(pairs: Iterable[LabeledPair], sink: Optional[Sink] = None) -> CorpusStats:
    """Distinct-token vocabulary and mean word length per side, in one pass over ``pairs``.

    The pairs go to ``sink`` a chunk at a time when one is given; else none outlives its chunk.
    """
    collector = _Collector(deque(maxlen=0) if sink is None else sink)
    pairs = iter(pairs)
    while chunk := list(islice(pairs, CHUNK_SIZE)):
        sides = [(pair.complex, pair.simple) for pair in chunk]
        words = [(len(tokenize_words(c).tokens), len(tokenize_words(s).tokens)) for c, s in sides]
        vocab = [set(chain.from_iterable(map(metric_tokens, side))) for side in zip(*sides)]
        collector.merge(chunk, words, ({}, range(len(chunk)), *vocab))
    return collector.stats()


def _build(
    bitext_targets: Iterable[str],
    translations: Iterable[str],
    configs: Sequence[SelectorConfig],
    profile: LanguageProfile,
    workers: int,
    sinks: Sequence[Optional[Sink]],
) -> list[SimplificationCorpus]:
    """Decide the pairs a chunk at a time and hand each configuration's kept pairs to its sink.

    Returns one corpus per configuration; with no sink, its collector keeps its ``pairs``.
    """
    collectors = [_Collector(sink, config.dedup) for config, sink in zip(configs, sinks)]
    aligned = _aligned(bitext_targets, translations)
    chunks = iter(lambda: list(islice(aligned, CHUNK_SIZE)), [])  # only the last can be short
    with closing(_replies(partial(_decide_chunk, configs, profile), chunks, workers)) as replies:
        for start, (rows, words, records) in zip(count(0, CHUNK_SIZE), replies):
            labeled = [
                LabeledPair(c, s, gap, provenance, start + side // 2, bleu, fres_c, fres_s)
                for c, s, gap, provenance, side, bleu, fres_c, fres_s in rows
            ]
            for collector, record in zip(collectors, records):
                collector.merge(labeled, words, record)
    return [
        collector.corpus(profile.lang_code, config) for config, collector in zip(configs, collectors)
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
    (corpus,) = _build(bitext_targets, translations, (config,), profile, workers, (sink,))
    return corpus


ABLATION_VARIANTS = {
    "pseudo": (False, False), "no_bleu": (False, True), "no_fres": (True, False), "full": (True, True)
}


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
    only), "no_fres" (BLEU selector only), and "full", in that order;
    ``ABLATION_VARIANTS`` maps each name to its ``(enable_bleu, enable_fres)``.
    With ``sinks``, keyed the same way, each variant's kept pairs go to its
    sink and its corpus has no ``pairs``.
    """
    base = config or SelectorConfig()
    configs = [replace(base, enable_bleu=b, enable_fres=f) for b, f in ABLATION_VARIANTS.values()]
    variant_sinks = [None if sinks is None else sinks[name] for name in ABLATION_VARIANTS]
    corpora = _build(bitext_targets, translations, configs, profile, workers, variant_sinks)
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
    return replace(corpus, pairs=pairs, stats=compute_corpus_stats(pairs), drop_tally=None)
