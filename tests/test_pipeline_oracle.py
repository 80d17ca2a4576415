"""Differential tests: the chunked decision against per-pair score-then-decide.

``pipeline_oracle`` keeps the two-step, one-pair-at-a-time implementation
that ``build_corpus`` and ``ablate`` replaced. Every selector combination,
three threshold pairs, one and two workers, and inputs that end on, just
before and just after a chunk boundary must give the same kept pairs (every
field), drop tally and corpus statistics, and the same error for streams of
different lengths. ``bleu_selector`` chained into ``fres_selector`` must
keep the same pairs and count the same drops as the oracle, also when every
pair comes scored.
"""

from __future__ import annotations

import itertools
import unicodedata
from dataclasses import replace
from functools import lru_cache

import pytest

import kernel_oracle
import pipeline_oracle
from pipeline_oracle import oracle_ablate, oracle_build
from synth import make_aligned_streams

from sscorpus import pipeline
from sscorpus.pipeline import (
    CHUNK_SIZE,
    DropTally,
    SelectorConfig,
    ablate,
    bleu_selector,
    build_corpus,
    compute_corpus_stats,
    fres_selector,
    generate_pseudo_pairs,
)
from sscorpus.textprep import get_profile

EN = get_profile("en")

THRESHOLDS = [(15.0, 10.0), (0.0, 0.0), (40.0, 25.0)]
KEPT = (
    "The money must be invested in enterprises which guarantee that graduates will find employment.",
    "The money must be invested in companies that guarantee that graduates will find a job.",
)
EDGE_PAIRS = [
    KEPT,
    KEPT,  # a kept pair repeated, for dedup with the selectors on
    ("?!?", "some words here."),  # no countable words on the source side
    ("some words here.", "... !!!"),  # and on the translated side
    (unicodedata.normalize("NFD", "café au lait."), "café au lait."),  # identical after NFC
    ("go go go.", "go go go."),
    (" ".join(["hello"] * 13 + ["go"] * 5) + ".", " ".join(["hello"] * 7 + ["go"] * 3) + "."),
    # the source side is the simple one, and each side has words of its own
    ("Zebras run.", "Zebras are running extraordinarily energetically nowadays."),
    ("Cats sit.", "Dogs sit."),  # different sides of equal reading ease: the translation is simple
]


def _inputs() -> tuple[list[str], list[str]]:
    targets, translations = make_aligned_streams(120, seed=127)
    targets += [target for target, _ in EDGE_PAIRS]
    translations += [translation for _, translation in EDGE_PAIRS]
    return targets, translations


TARGETS, TRANSLATIONS = _inputs()


def _configs(h_bleu: float, h_fres: float) -> list[SelectorConfig]:
    return [
        SelectorConfig(h_bleu, h_fres, enable_bleu, enable_fres, drop_identity, dedup)
        for enable_bleu, enable_fres, drop_identity, dedup in itertools.product(
            (True, False), repeat=4
        )
    ]


@lru_cache(maxsize=None)
def _expected(config: SelectorConfig):
    return oracle_build(TARGETS, TRANSLATIONS, config, EN)


def _assert_same(corpus, expected, label: str) -> None:
    assert corpus.pairs == expected.pairs, label
    assert corpus.drop_tally == expected.drop_tally, label
    assert corpus.stats == expected.stats, label
    assert corpus.config_snapshot == expected.config_snapshot, label
    assert corpus.lang == expected.lang, label


def test_fixture_reaches_every_drop_reason():
    tallies = [_expected(config).drop_tally for config in _configs(*THRESHOLDS[0])]
    assert all(tally.n_input == len(TARGETS) for tally in tallies)
    for reason in ("identity", "bleu", "fres", "no_words", "duplicate"):
        assert any(getattr(tally, f"dropped_{reason}") for tally in tallies), reason
    assert _expected(SelectorConfig(dedup=True)).drop_tally.n_kept > 0
    tied = [pair for pair in _expected(SelectorConfig(0.0, 0.0)).pairs if pair.complex == "Cats sit."]
    assert [(p.simple, p.fres_gap, p.provenance) for p in tied] == [("Dogs sit.", 0.0, "translated")]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("h_bleu,h_fres", THRESHOLDS)
def test_build_corpus_matches_oracle(h_bleu, h_fres, workers):
    for config in _configs(h_bleu, h_fres):
        corpus = build_corpus(TARGETS, TRANSLATIONS, config, EN, workers=workers)
        _assert_same(corpus, _expected(config), f"{config}, workers={workers}")


@pytest.mark.parametrize("h_bleu,h_fres", THRESHOLDS)
def test_accumulated_stats_match_recomputed_stats(h_bleu, h_fres):
    # build_corpus accumulates its statistics from the tokens the selector
    # produced; recomputing them from the kept pairs must agree.
    for config in _configs(h_bleu, h_fres):
        corpus = build_corpus(TARGETS, TRANSLATIONS, config, EN)
        assert corpus.stats == compute_corpus_stats(corpus.pairs), config
        assert corpus.stats == kernel_oracle.compute_corpus_stats(corpus.pairs, EN), config


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("h_bleu,h_fres", THRESHOLDS)
def test_ablate_matches_oracle(h_bleu, h_fres, workers):
    for base in _configs(h_bleu, h_fres)[:4]:  # enable flags are set per variant
        variants = ablate(TARGETS, TRANSLATIONS, EN, base, workers=workers)
        expected = oracle_ablate(TARGETS, TRANSLATIONS, EN, base)
        assert list(variants) == list(expected)
        for name in expected:
            _assert_same(variants[name], expected[name], f"{name} of {base}, workers={workers}")


@pytest.mark.parametrize("pre_scored", [False, True])
@pytest.mark.parametrize("drop_identity", [True, False])
@pytest.mark.parametrize("h_bleu,h_fres", THRESHOLDS)
def test_selectors_match_oracle(h_bleu, h_fres, drop_identity, pre_scored, monkeypatch):
    config = SelectorConfig(h_bleu, h_fres, drop_identity=drop_identity)
    expected = _expected(config)
    pairs = list(generate_pseudo_pairs(TARGETS, TRANSLATIONS))
    counted = []
    if pre_scored:
        pairs = [pipeline_oracle.score_pair(pair, config, EN) for pair in pairs]
        for name in ("metric_tokens", "text_stats", "_pair_bleu"):
            original = getattr(pipeline, name)

            def record(*args, _name=name, _original=original):
                result = _original(*args)
                counted.append((_name, result))
                return result

            monkeypatch.setattr(pipeline, name, record)
    tally = DropTally()
    kept = list(fres_selector(bleu_selector(pairs, config, tally), config, EN, tally))
    assert kept == expected.pairs
    # The selectors count drops only.
    assert tally == replace(expected.drop_tally, n_input=0, n_kept=0)
    # A score given beforehand is used as given. Only a side without countable words, whose
    # given reading ease is None, is counted again, and it still has none.
    assert all(name == "text_stats" and not stats.n_words for name, stats in counted)


C = CHUNK_SIZE


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("dedup", [False, True])
@pytest.mark.parametrize("n_pairs", [0, 1, C - 1, C, C + 1, 2 * C + 1])
def test_chunk_boundaries_match_oracle(n_pairs, dedup, workers):
    targets, translations = make_aligned_streams(n_pairs, seed=n_pairs)
    if n_pairs > C:  # a kept pair repeated across a chunk boundary, for dedup
        targets[C], translations[C] = KEPT
        targets[C - 1], translations[C - 1] = KEPT
    config = SelectorConfig(dedup=dedup)
    corpus = build_corpus(targets, translations, config, EN, workers=workers)
    label = f"{n_pairs} pairs, dedup={dedup}, workers={workers}"
    _assert_same(corpus, oracle_build(targets, translations, config, EN), label)
    if dedup and n_pairs > C:
        assert corpus.drop_tally.dropped_duplicate, label
    variants = ablate(targets, translations, EN, config, workers=workers)
    for name, expected in oracle_ablate(targets, translations, EN, config).items():
        _assert_same(variants[name], expected, f"{name} of {label}")


def _oracle_error(targets: list[str], translations: list[str]) -> str:
    with pytest.raises(ValueError) as excinfo:
        list(pipeline_oracle.generate_pseudo_pairs(targets, translations))
    return str(excinfo.value)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("shorter", [C, 2 * C, C + 3])  # ends on a chunk boundary, or inside one
@pytest.mark.parametrize("short_side", ["targets", "translations"])
def test_length_mismatch_matches_oracle(shorter, short_side, workers):
    targets, translations = make_aligned_streams(shorter + 5, seed=shorter)
    if short_side == "targets":
        targets = targets[:shorter]
    else:
        translations = translations[:shorter]
    message = _oracle_error(targets, translations)
    assert message == (
        "aligned streams differ in length: "
        f"{len(targets)} target lines vs {len(translations)} translation lines"
    )
    with pytest.raises(ValueError) as excinfo:
        list(generate_pseudo_pairs(iter(targets), iter(translations)))
    assert str(excinfo.value) == message
    for run in (
        lambda: build_corpus(iter(targets), iter(translations), SelectorConfig(), EN, workers=workers),
        lambda: ablate(iter(targets), iter(translations), EN, workers=workers),
    ):
        with pytest.raises(ValueError) as excinfo:
            run()
        assert str(excinfo.value) == message
