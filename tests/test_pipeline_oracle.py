"""Differential tests: the single per-pair decision against score-then-decide.

``pipeline_oracle`` keeps the two-step implementation that ``build_corpus``
and ``ablate`` replaced. Every selector combination, three threshold pairs
and one and two workers must give the same kept pairs (every field), drop
tally and corpus statistics.
"""

from __future__ import annotations

import itertools
import unicodedata
from functools import lru_cache

import pytest

import kernel_oracle
from pipeline_oracle import oracle_ablate, oracle_build
from synth import make_aligned_streams

from sscorpus.pipeline import SelectorConfig, ablate, build_corpus, compute_corpus_stats
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
        assert corpus.stats == compute_corpus_stats(corpus.pairs, EN), config
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
