"""The per-pair selector path as two separate steps, and the list-based
corpus files, kept as test oracles.

``generate_pseudo_pairs`` is copied unchanged from the per-pair generator
that :mod:`sscorpus.pipeline` replaced with chunks of CHUNK_SIZE pairs; the
oracles below pair their inputs with it.

``score_pair`` fills every score a configuration needs and ``_decide``
applies the selectors to the scored pairs. They are copied unchanged from
the implementation that :func:`sscorpus.pipeline.build_corpus` replaced
with a single lazy decision per pair; ``oracle_build`` and
``oracle_ablate`` assemble them the way ``build_corpus`` and ``ablate``
used to, so the differential tests can compare every output field.

``write_corpus``, ``read_corpus`` and ``subset`` are copied unchanged from
the implementation that :class:`sscorpus.ingest.CorpusWriter`,
:func:`sscorpus.ingest.iter_corpus` and :func:`sscorpus.pipeline.sample`
replaced, which held the whole corpus in memory: one validation pass, then
one branch per format.
"""

from __future__ import annotations

import json
import os
import random
import unicodedata
from dataclasses import asdict, replace
from pathlib import Path
from itertools import zip_longest
from typing import Iterable, Iterator, Optional

from sscorpus.ingest import iter_lines, open_aligned
from sscorpus.metrics import fres, sentence_bleu
from sscorpus.pipeline import (
    DropTally,
    LabeledPair,
    SelectorConfig,
    SentencePair,
    SimplificationCorpus,
    compute_corpus_stats,
)
from sscorpus.textprep import LanguageProfile


_SENTINEL = object()


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
        kept, profile.lang_code, config, compute_corpus_stats(kept), tally
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
            kept, profile.lang_code, variant_config, compute_corpus_stats(kept), tally
        )
    return variants


# --- corpus files ---

_TSV_HEADER = "complex\tsimple\tbleu\tfres_complex\tfres_simple\tfres_gap"


def _format_score(value: Optional[float]) -> str:
    return "" if value is None else f"{value:.6f}"


def _parse_score(text: str) -> Optional[float]:
    return None if text == "" else float(text)


def write_corpus(
    corpus: SimplificationCorpus,
    out_prefix: Path | str,
    format: str = "plain",
    run_info: Optional[dict] = None,
) -> list[Path]:
    """Write corpus files plus ``<prefix>.meta.json``; returns the paths written.

    plain: ``<prefix>.complex`` and ``<prefix>.simple``, line-aligned, LF.
    tsv:   one file with per-pair scores for inspection.

    A sentence the reader could not give back is rejected before anything is
    written: a line feed or a trailing carriage return in either format, and
    a tab in TSV. The error names the pair index.

    Every file is written under a temporary name in the output directory and
    renamed into place only after all of them are complete, ``meta.json``
    last, so a failed write leaves no new file behind and an earlier corpus
    at the same prefix untouched.
    """
    if format not in ("plain", "tsv"):
        raise ValueError(f"unknown corpus format {format!r}")
    tsv = format == "tsv"
    for pair in corpus.pairs:
        for text in (pair.complex, pair.simple):
            if "\n" in text or text.endswith("\r") or (tsv and "\t" in text):
                raise ValueError(
                    f"pair {pair.index}: sentence {text!r} has a tab or line break "
                    f"that the {format} format cannot hold"
                )
    meta = {
        "format": format,
        "lang": corpus.lang,
        "config": asdict(corpus.config_snapshot),
        "stats": asdict(corpus.stats),
        "drop_tally": asdict(corpus.drop_tally) if corpus.drop_tally else None,
    }
    if run_info:
        meta["run"] = run_info
    prefix = Path(out_prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    suffixes = ("tsv",) if tsv else ("complex", "simple")
    written = [Path(f"{prefix}.{suffix}") for suffix in (*suffixes, "meta.json")]
    temporary = [path.with_name(f"{path.name}.{os.getpid()}.tmp") for path in written]
    try:
        if tsv:
            with open(temporary[0], "w", encoding="utf-8", newline="\n") as fh:
                fh.write(_TSV_HEADER + "\n")
                for pair in corpus.pairs:
                    fh.write(
                        "\t".join(
                            (
                                pair.complex,
                                pair.simple,
                                _format_score(pair.bleu),
                                _format_score(pair.fres_complex),
                                _format_score(pair.fres_simple),
                                _format_score(pair.fres_gap),
                            )
                        )
                        + "\n"
                    )
        else:
            with open(temporary[0], "w", encoding="utf-8", newline="\n") as complex_fh, open(
                temporary[1], "w", encoding="utf-8", newline="\n"
            ) as simple_fh:
                for pair in corpus.pairs:
                    complex_fh.write(pair.complex + "\n")
                    simple_fh.write(pair.simple + "\n")
        with open(temporary[-1], "w", encoding="utf-8", newline="\n") as fh:
            json.dump(meta, fh, indent=2, ensure_ascii=False)
            fh.write("\n")
        # meta.json goes last: a corpus whose meta.json is in place is complete.
        for source, target in zip(temporary, written):
            os.replace(source, target)
    finally:
        for path in temporary:
            path.unlink(missing_ok=True)
    return written


def read_corpus(prefix: Path | str, format: str = "plain") -> SimplificationCorpus:
    """Read a corpus written by :func:`write_corpus`."""
    prefix = Path(prefix)
    meta_path = Path(f"{prefix}.meta.json")
    meta = {}
    if meta_path.exists():
        meta = json.loads(meta_path.read_text(encoding="utf-8"))

    pairs: list[LabeledPair] = []
    if format == "plain":
        complex_lines, simple_lines = open_aligned(
            Path(f"{prefix}.complex"), Path(f"{prefix}.simple")
        )
        for index, (complex_line, simple_line) in enumerate(zip(complex_lines, simple_lines)):
            pairs.append(
                LabeledPair(
                    complex=complex_line,
                    simple=simple_line,
                    fres_gap=0.0,
                    provenance="unlabeled",
                    index=index,
                )
            )
    elif format == "tsv":
        tsv_path = Path(f"{prefix}.tsv")
        lines = iter_lines(tsv_path)
        header = next(lines, None)
        if header != _TSV_HEADER:
            raise ValueError(f"{tsv_path}: header is {header!r}, expected {_TSV_HEADER!r}")
        for index, line in enumerate(lines):
            fields = line.split("\t")
            if len(fields) != 6:
                raise ValueError(f"{tsv_path}: malformed row {index + 2}")
            pairs.append(
                LabeledPair(
                    complex=fields[0],
                    simple=fields[1],
                    fres_gap=_parse_score(fields[5]) or 0.0,
                    provenance="unlabeled",
                    index=index,
                    bleu=_parse_score(fields[2]),
                    fres_complex=_parse_score(fields[3]),
                    fres_simple=_parse_score(fields[4]),
                )
            )
    else:
        raise ValueError(f"unknown corpus format {format!r}")

    lang = meta.get("lang", "en")
    config = SelectorConfig(**meta["config"]) if "config" in meta else SelectorConfig()
    tally = DropTally(**meta["drop_tally"]) if meta.get("drop_tally") else None
    return SimplificationCorpus(
        pairs=pairs,
        lang=lang,
        config_snapshot=config,
        stats=compute_corpus_stats(pairs),
        drop_tally=tally,
    )


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
        stats=compute_corpus_stats(pairs),
        drop_tally=None,
    )
