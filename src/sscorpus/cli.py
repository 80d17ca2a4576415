"""Command-line interface: build, eval, stats, ablate, subset.

Exit codes: 0 success, 1 runtime error, 2 usage error, and 128 + N after signal N ends the run:
130 for SIGINT, 129 for SIGHUP and 143 for SIGTERM.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import sys
import threading
from dataclasses import asdict, astuple
from pathlib import Path
from typing import Optional

from . import ingest, metrics, pipeline
from .textprep import PROFILES, get_profile


def _at_least(minimum: int):
    """An argparse type: an integer no smaller than ``minimum``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value" errors
    return parse


def _positive_seconds(text: str) -> float:
    """An argparse type: a finite number of seconds above zero."""
    value = float(text)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text}")
    return value


_positive_seconds.__name__ = "float"  # for "invalid float value" errors


def _add_corpus_args(parser: argparse.ArgumentParser, out_help: str) -> None:
    """The flags ``build`` and ``ablate`` share: selectors, inputs and output."""
    config, source = pipeline.SelectorConfig, ingest.TranslationSource  # the defaults' one home
    parser.add_argument("--lang", default="en", choices=sorted(PROFILES), help="language profile")
    parser.add_argument("--h-bleu", type=float, default=config.h_bleu, help="BLEU selector threshold")
    parser.add_argument("--h-fres", type=float, default=config.h_fres, help="reading-ease gap threshold")
    parser.add_argument("--no-bleu-selector", action="store_true", help="disable the BLEU selector")
    parser.add_argument(
        "--no-fres-selector", action="store_true", help="disable the reading-ease selector"
    )
    parser.add_argument(
        "--keep-identity", action="store_true", help="keep pairs whose sides are identical"
    )
    parser.add_argument(
        "--dedup", action="store_true", help="drop exact duplicate (complex, simple) pairs"
    )
    parser.add_argument("--target", required=True, help="corpus-language sentences, one per line")
    parser.add_argument("--bridge", help="bridge-language sentences (for --translator-cmd)")
    parser.add_argument("--translations", help="precomputed translations, aligned to --target")
    parser.add_argument("--translator-cmd", help="line-protocol translator command")
    parser.add_argument(
        "--batch-size", type=_at_least(1), default=source.batch_size, help="translator batch size"
    )
    parser.add_argument(
        "--translator-timeout", type=_positive_seconds, default=source.timeout,
        help="per-batch timeout, seconds",
    )
    parser.add_argument("--workers", type=_at_least(1), default=1, help="scoring worker processes")
    parser.add_argument("--out", required=True, help=out_help)
    parser.add_argument("--format", default="plain", choices=ingest.FORMATS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sscorpus",
        description="Build and evaluate sentence-simplification corpora from bitexts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="build a labeled corpus from a bitext")
    _add_corpus_args(p_build, "output path prefix")

    p_eval = sub.add_parser("eval", help="score hypotheses against an evaluation dataset")
    p_eval.add_argument("--dataset", required=True, help="directory with <name>.src and <name>.ref.<i>")
    p_eval.add_argument("--hypotheses", help="hypothesis file, one sentence per line")
    p_eval.add_argument(
        "--row", choices=("source",), help="shortcut: score the dataset sources as hypotheses"
    )
    p_eval.add_argument("--lang", default="en", choices=sorted(PROFILES))

    p_stats = sub.add_parser("stats", help="report statistics of a written corpus")
    p_stats.add_argument("--corpus", required=True, help="corpus path prefix")
    p_stats.add_argument("--format", default="plain", choices=ingest.FORMATS)

    p_ablate = sub.add_parser("ablate", help="build the four selector variants")
    _add_corpus_args(p_ablate, "output path prefix (variant suffix added)")

    p_subset = sub.add_parser("subset", help="sample a smaller corpus, order-preserving")
    p_subset.add_argument("--corpus", required=True, help="input corpus path prefix")
    p_subset.add_argument("-n", type=_at_least(0), required=True, help="number of pairs to keep")
    p_subset.add_argument("--seed", type=int, default=0)
    p_subset.add_argument("--out", required=True, help="output path prefix")
    p_subset.add_argument("--format", default="plain", choices=ingest.FORMATS)

    return parser


def _corpus_inputs(args: argparse.Namespace) -> tuple:
    """The selector configuration, language profile, and aligned target and translation streams.

    They are checked in that order, so a bad threshold is reported before any input is opened.
    """
    config = pipeline.SelectorConfig(
        h_bleu=args.h_bleu,
        h_fres=args.h_fres,
        enable_bleu=not args.no_bleu_selector,
        enable_fres=not args.no_fres_selector,
        drop_identity=not args.keep_identity,
        dedup=args.dedup,
    )
    profile = get_profile(args.lang)
    if bool(args.translations) == bool(args.translator_cmd):
        raise ValueError("exactly one of --translations or --translator-cmd is required")
    if args.translations:
        return config, profile, *ingest.open_aligned(Path(args.target), Path(args.translations))
    if not args.bridge:
        raise ValueError("--translator-cmd requires --bridge")
    source = ingest.TranslationSource(args.translator_cmd, args.batch_size, args.translator_timeout)
    targets, bridge = ingest.open_aligned(Path(args.target), Path(args.bridge))
    # The two sides are separate files, so each can be streamed on its own;
    # the translator is free to read bridge lines a batch ahead.
    return config, profile, targets, ingest.translate(bridge, source)


def _run_info(args: argparse.Namespace, extra: Optional[dict] = None) -> dict:
    info = {k: v for k, v in sorted(vars(args).items()) if k != "command" and v is not None}
    return {**info, **(extra or {})}


def _print_summary(tally: pipeline.DropTally) -> None:
    labels = (  # in DropTally's field order
        "input pairs", "dropped (identity)", "dropped (BLEU)", "dropped (FRES)",
        "dropped (no words)", "dropped (duplicate)", "kept",
    )
    width = max(map(len, labels))
    for label, value in zip(labels, astuple(tally), strict=True):
        print(f"{label:<{width}}  {value}")


def cmd_build(args: argparse.Namespace) -> int:
    config, profile, targets, translations = _corpus_inputs(args)
    with ingest.writing([args.out], args.format) as (writer,):
        corpus = pipeline.build_corpus(
            targets, translations, config, profile, workers=args.workers, sink=writer
        )
        writer.close(corpus, _run_info(args))
    _print_summary(corpus.drop_tally)
    print("wrote: " + " ".join(str(p) for p in writer.paths))
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    if bool(args.hypotheses) == bool(args.row):
        raise ValueError("exactly one of --hypotheses or --row is required")
    sources, references = ingest.read_eval_dataset(args.dataset)
    if args.row == "source":
        hypotheses = sources
    else:
        # Counted before decoding, so a misaligned file is reported as such.
        if (n_hypotheses := ingest.count_lines(Path(args.hypotheses))) != len(sources):
            raise ValueError(
                f"{args.hypotheses}: {n_hypotheses} hypotheses for {len(sources)} sources"
            )
        hypotheses = list(ingest.iter_lines(Path(args.hypotheses)))
    report = metrics.evaluate(sources, hypotheses, references, get_profile(args.lang))
    print(json.dumps(report.to_dict(), indent=2))
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    ingest.read_meta(args.corpus, args.format)  # a malformed meta.json is an error
    pairs = ingest.iter_corpus(args.corpus, format=args.format)
    print(json.dumps(asdict(pipeline.compute_corpus_stats(pairs)), indent=2))
    return 0


def cmd_ablate(args: argparse.Namespace) -> int:
    config, profile, targets, translations = _corpus_inputs(args)
    # Every variant is complete under temporary names before any is renamed
    # into place, so a failed run leaves none of them behind.
    names = pipeline.ABLATION_VARIANTS
    with ingest.writing([f"{args.out}.{name}" for name in names], args.format) as writers:
        sinks = dict(zip(names, writers))
        variants = pipeline.ablate(
            targets, translations, profile, config, workers=args.workers, sinks=sinks
        )
        for name, corpus in variants.items():
            sinks[name].close(corpus, _run_info(args, {"variant": name}))
    kept = {name: corpus.stats.total_pairs for name, corpus in variants.items()}
    print(json.dumps({"kept": kept}, indent=2))
    return 0


def cmd_subset(args: argparse.Namespace) -> int:
    lang, config, _ = ingest.read_meta(args.corpus, args.format)
    total = ingest.count_pairs(args.corpus, format=args.format)
    pairs = ingest.iter_corpus(args.corpus, format=args.format)
    sampled = pipeline.sample(pairs, total, args.n, args.seed)
    with ingest.writing([args.out], args.format) as (writer,):
        stats = pipeline.compute_corpus_stats(sampled, sink=writer)
        writer.close(pipeline.SimplificationCorpus([], lang, config, stats), _run_info(args))
    print(f"kept {stats.total_pairs} of {total} pairs")
    return 0


_COMMANDS = {
    "build": cmd_build,
    "eval": cmd_eval,
    "stats": cmd_stats,
    "ablate": cmd_ablate,
    "subset": cmd_subset,
}


def _interrupt(signum: int, frame) -> None:
    raise KeyboardInterrupt(signum)


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    # SIGTERM and SIGHUP unwind the run as Ctrl-C does, unless ignored (nohup) or handled already.
    sigs = [s for s in (signal.SIGTERM, signal.SIGHUP) if signal.getsignal(s) == signal.SIG_DFL]
    in_main = threading.current_thread() is threading.main_thread()  # only it may set them
    handlers = {sig: signal.signal(sig, _interrupt) for sig in sigs if in_main}
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt as exc:  # Ctrl-C raises it with no signal number
        sig = signal.Signals(exc.args[0] if exc.args else signal.SIGINT)
        print(f"error: interrupted by {sig.name}", file=sys.stderr)
        return 128 + sig
    finally:
        for sig, handler in handlers.items():
            signal.signal(sig, handler)


if __name__ == "__main__":
    sys.exit(main())
