"""The per-pair selector path as two separate steps, kept as a test oracle.

``score_pair`` fills every score a configuration needs and ``_decide``
applies the selectors to the scored pairs. They are copied unchanged from
the implementation that :func:`sscorpus.pipeline.build_corpus` replaced
with a single lazy decision per pair; ``oracle_build`` and
``oracle_ablate`` assemble them the way ``build_corpus`` and ``ablate``
used to, so the differential tests can compare every output field.
"""

from __future__ import annotations

import unicodedata
from dataclasses import replace
from typing import Iterable, Iterator, Optional

from sscorpus.metrics import fres, sentence_bleu
from sscorpus.pipeline import (
    DropTally,
    LabeledPair,
    SelectorConfig,
    SentencePair,
    SimplificationCorpus,
    compute_corpus_stats,
    generate_pseudo_pairs,
)
from sscorpus.textprep import LanguageProfile


def _nfc(text: str) -> str:
    return unicodedata.normalize("NFC", text)


def _is_identity(pair: SentencePair) -> bool:
    return _nfc(pair.source_sentence) == _nfc(pair.translated_sentence)


def _safe_fres(text: str, profile: LanguageProfile) -> Optional[float]:
    try:
        return fres(text, profile)
    except ValueError:
        return None


def score_pair(pair: SentencePair, config: SelectorConfig, profile: LanguageProfile) -> SentencePair:
    """Fill in the metric fields a configuration needs; pure and order-free."""
    bleu = pair.bleu
    if config.enable_bleu and bleu is None:
        bleu = sentence_bleu(pair.translated_sentence, [pair.source_sentence])
    fres_source = pair.fres_source
    fres_translated = pair.fres_translated
    if config.enable_fres:
        if fres_source is None:
            fres_source = _safe_fres(pair.source_sentence, profile)
        if fres_translated is None:
            fres_translated = _safe_fres(pair.translated_sentence, profile)
    return replace(
        pair, bleu=bleu, fres_source=fres_source, fres_translated=fres_translated
    )


def _label(pair: SentencePair, fres_source: float, fres_translated: float) -> LabeledPair:
    # The side with the higher reading-ease score is the simple one.
    if fres_translated >= fres_source:
        return LabeledPair(
            complex=pair.source_sentence,
            simple=pair.translated_sentence,
            fres_gap=fres_translated - fres_source,
            provenance="translated",
            index=pair.index,
            bleu=pair.bleu,
            fres_complex=fres_source,
            fres_simple=fres_translated,
        )
    return LabeledPair(
        complex=pair.translated_sentence,
        simple=pair.source_sentence,
        fres_gap=fres_source - fres_translated,
        provenance="source",
        index=pair.index,
        bleu=pair.bleu,
        fres_complex=fres_translated,
        fres_simple=fres_source,
    )


def _decide(
    scored_pairs: Iterable[SentencePair],
    config: SelectorConfig,
    tally: DropTally,
) -> Iterator[LabeledPair]:
    """Apply the configured selectors to pre-scored pairs, in order."""
    seen: set[tuple[str, str]] = set()
    for pair in scored_pairs:
        tally.n_input += 1
        if config.enable_bleu:
            if config.drop_identity and _is_identity(pair):
                tally.dropped_identity += 1
                continue
            if pair.bleu is None or pair.bleu < config.h_bleu:
                tally.dropped_bleu += 1
                continue
        if config.enable_fres:
            if pair.fres_source is None or pair.fres_translated is None:
                tally.dropped_no_words += 1
                continue
            if abs(pair.fres_source - pair.fres_translated) < config.h_fres:
                tally.dropped_fres += 1
                continue
            if _is_identity(pair):
                tally.dropped_identity += 1
                continue
            labeled = _label(pair, pair.fres_source, pair.fres_translated)
        else:
            labeled = LabeledPair(
                complex=pair.source_sentence,
                simple=pair.translated_sentence,
                fres_gap=0.0,
                provenance="unlabeled",
                index=pair.index,
                bleu=pair.bleu,
                fres_complex=pair.fres_source,
                fres_simple=pair.fres_translated,
            )
        if config.dedup:
            key = (labeled.complex, labeled.simple)
            if key in seen:
                tally.dropped_duplicate += 1
                continue
            seen.add(key)
        tally.n_kept += 1
        yield labeled


def oracle_build(
    targets: list[str], translations: list[str], config: SelectorConfig, profile: LanguageProfile
) -> SimplificationCorpus:
    tally = DropTally()
    scored = (score_pair(p, config, profile) for p in generate_pseudo_pairs(targets, translations))
    kept = list(_decide(scored, config, tally))
    return SimplificationCorpus(
        kept, profile.lang_code, config, compute_corpus_stats(kept, profile), tally
    )


def oracle_ablate(
    targets: list[str], translations: list[str], profile: LanguageProfile, base: SelectorConfig
) -> dict[str, SimplificationCorpus]:
    score_config = replace(base, enable_bleu=True, enable_fres=True)
    pairs = generate_pseudo_pairs(targets, translations)
    scored = [score_pair(p, score_config, profile) for p in pairs]
    variant_configs = {
        "pseudo": replace(base, enable_bleu=False, enable_fres=False),
        "no_bleu": replace(base, enable_bleu=False, enable_fres=True),
        "no_fres": replace(base, enable_bleu=True, enable_fres=False),
        "full": replace(base, enable_bleu=True, enable_fres=True),
    }
    variants = {}
    for name, variant_config in variant_configs.items():
        tally = DropTally()
        kept = list(_decide(scored, variant_config, tally))
        variants[name] = SimplificationCorpus(
            kept, profile.lang_code, variant_config, compute_corpus_stats(kept, profile), tally
        )
    return variants
