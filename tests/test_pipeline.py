import os
import re
import subprocess
import sys
import textwrap
import time
from dataclasses import replace

import pytest

from synth import make_aligned_streams

from sscorpus import pipeline
from sscorpus.metrics import fres, sentence_bleu
from sscorpus.pipeline import (
    ABLATION_VARIANTS,
    SelectorConfig,
    SentencePair,
    ablate,
    bleu_selector,
    build_corpus,
    compute_corpus_stats,
    fres_selector,
    generate_pseudo_pairs,
    subset,
)
from sscorpus.pipeline import DropTally, LabeledPair
from sscorpus.textprep import get_profile

EN = get_profile("en")
TESTS = os.path.dirname(os.path.abspath(__file__))

# Sample bitext triple: trusted sentence on the left, back-translation on the
# right. Under this artifact's counting rules the middle pair's ease gap is
# ~5.9 and fails the default threshold; the other two pass both selectors.
TRIO = [
    ("He says he gets claustrophobic, that he feels trapped as if he was buried in a coffin.",
     "He says he gets scared and feels like he's being buried in a coffin."),
    ("You simply must experience the Hotel Gates Am Kudamm with its unique concept of hospitality.",
     "The Hotel Gates Am Kudamm, with its unique hospitality, is a must-see."),
    ("The money must be invested in enterprises which guarantee that graduates will find employment.",
     "The money must be invested in companies that guarantee that graduates will find a job."),
]


def exact_gap_pair() -> SentencePair:
    """Two sentences whose computed ease gap is exactly 10.0 in float64.

    18 monospaced words (31 syllables) vs 10 words (17 syllables), one
    sentence each; found by searching stat configurations.
    """
    harder = " ".join(["hello"] * 13 + ["go"] * 5) + "."
    easier = " ".join(["hello"] * 7 + ["go"] * 3) + "."
    return SentencePair(harder, easier, 0)


def pairs_from(data):
    return list(generate_pseudo_pairs([s for s, _ in data], [t for _, t in data]))


class TestGenerate:
    def test_pairs_carry_both_sides_and_index(self):
        pairs = pairs_from(TRIO)
        assert len(pairs) == 3
        assert [p.index for p in pairs] == [0, 1, 2]
        assert pairs[0].source_sentence == TRIO[0][0]
        assert pairs[0].translated_sentence == TRIO[0][1]

    def test_empty_streams(self):
        assert list(generate_pseudo_pairs([], [])) == []

    def test_length_mismatch_names_both_counts(self):
        with pytest.raises(ValueError, match="3 target lines vs 4 translation lines"):
            list(generate_pseudo_pairs(["a", "b", "c"], ["w", "x", "y", "z"]))


class TestSelectorConfig:
    def test_defaults(self):
        config = SelectorConfig()
        assert config.h_bleu == 15.0
        assert config.h_fres == 10.0

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            SelectorConfig(h_bleu=150.0)
        with pytest.raises(ValueError):
            SelectorConfig(h_fres=-1.0)
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="h_fres must be finite"):
                SelectorConfig(h_fres=value)

    @pytest.mark.parametrize("name", ["h_bleu", "h_fres"])
    @pytest.mark.parametrize("value", [True, False, "x", "15", None, [15.0]])
    def test_thresholds_must_be_numbers(self, name, value):
        # A meta.json can hold any JSON value here; true would pass as 1.0 and "x" fail a comparison.
        with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must be a number, got {value!r}')}$"):
            SelectorConfig(**{name: value})

    @pytest.mark.parametrize("name", ["enable_bleu", "enable_fres", "drop_identity", "dedup"])
    @pytest.mark.parametrize("value", ["no", 1, None])
    def test_switches_must_be_booleans(self, name, value):
        # A meta.json can hold any JSON value here; "no" is truthy and would switch it on.
        with pytest.raises(ValueError, match=f"^{name} must be true or false, got {value!r}$"):
            SelectorConfig(**{name: value})


class TestBleuSelector:
    def test_identity_pair_dropped(self):
        tally = DropTally()
        pairs = [SentencePair("same.", "same.", 0)]
        assert list(bleu_selector(pairs, SelectorConfig(), tally)) == []
        assert tally.dropped_identity == 1

    def test_boundary_pairs_follow_the_oracle(self, metric_expected):
        for key, expect_kept in (("bleu_boundary_pair", False), ("bleu_boundary_pair_kept", True)):
            case = metric_expected[key]
            oracle = case["bleu"]
            assert expect_kept == (oracle >= 15.0)
            pair = SentencePair(case["reference"], case["hypothesis"], 0)
            kept = list(bleu_selector([pair], SelectorConfig(), DropTally()))
            assert bool(kept) == expect_kept
            if kept:
                assert kept[0].bleu == pytest.approx(oracle, abs=0.1)

    def test_unrelated_pair_dropped_at_default_threshold(self):
        source = " ".join(f"alpha{i}" for i in range(20)) + "."
        translation = " ".join(f"omega{i}" for i in range(20)) + "."
        kept = list(bleu_selector([SentencePair(source, translation, 0)], SelectorConfig(), DropTally()))
        assert kept == []

    def test_annotates_survivors(self):
        text = "the cat sat on the mat and purred."
        pair = SentencePair(text, "the cat sat on the mat and slept.", 0)
        (survivor,) = bleu_selector([pair], SelectorConfig(), DropTally())
        assert survivor.bleu == pytest.approx(
            sentence_bleu(survivor.translated_sentence, [survivor.source_sentence]), abs=1e-12
        )
        assert pair.bleu is None

    def test_disabled_config_rejected(self):
        with pytest.raises(ValueError, match="enable_bleu"):
            list(bleu_selector([], SelectorConfig(enable_bleu=False), None))

    def test_idempotent(self):
        targets, translations = make_aligned_streams(100, seed=3)
        pairs = list(generate_pseudo_pairs(targets, translations))
        once = list(bleu_selector(pairs, SelectorConfig(), DropTally()))
        twice = list(bleu_selector(once, SelectorConfig(), DropTally()))
        assert [p.index for p in twice] == [p.index for p in once]


class TestFresSelector:
    def test_keeps_and_labels_by_higher_score(self):
        pair = SentencePair("hard.", "easy.", 0, fres_source=65.0, fres_translated=80.0)
        (labeled,) = fres_selector([pair], SelectorConfig(), EN, DropTally())
        assert labeled.simple == "easy."
        assert labeled.complex == "hard."
        assert labeled.provenance == "translated"
        assert labeled.fres_gap == pytest.approx(15.0)

    def test_drops_small_gap(self):
        pair = SentencePair("a.", "b.", 0, fres_source=72.0, fres_translated=68.0)
        tally = DropTally()
        assert list(fres_selector([pair], SelectorConfig(), EN, tally)) == []
        assert tally.dropped_fres == 1

    def test_gap_exactly_at_threshold_is_kept(self):
        pair = exact_gap_pair()
        gap = fres(pair.translated_sentence, EN) - fres(pair.source_sentence, EN)
        assert gap == 10.0  # bit-exact by construction
        (labeled,) = fres_selector([pair], SelectorConfig(), EN, DropTally())
        assert labeled.fres_gap == 10.0
        assert labeled.simple == pair.translated_sentence

    def test_source_side_can_be_simple(self):
        pair = SentencePair("easy.", "hard.", 0, fres_source=90.0, fres_translated=50.0)
        (labeled,) = fres_selector([pair], SelectorConfig(), EN, DropTally())
        assert labeled.simple == "easy."
        assert labeled.provenance == "source"

    def test_zero_word_side_dropped_with_tally(self):
        pair = SentencePair("some words here.", "?!?", 0)
        tally = DropTally()
        assert list(fres_selector([pair], SelectorConfig(), EN, tally)) == []
        assert tally.dropped_no_words == 1

    def test_disabled_config_rejected(self):
        with pytest.raises(ValueError, match="enable_fres"):
            list(fres_selector([], SelectorConfig(enable_fres=False), EN, None))

    def test_idempotent_on_relabeled_output(self):
        targets, translations = make_aligned_streams(150, seed=5)
        pairs = list(generate_pseudo_pairs(targets, translations))
        once = list(fres_selector(pairs, SelectorConfig(), EN, DropTally()))
        rewrapped = [
            SentencePair(lp.complex, lp.simple, lp.index) for lp in once
        ]
        twice = list(fres_selector(rewrapped, SelectorConfig(), EN, DropTally()))
        assert [(lp.complex, lp.simple) for lp in twice] == [
            (lp.complex, lp.simple) for lp in once
        ]


class TestBuildCorpus:
    def test_sample_trio_survival_and_labels(self):
        corpus = build_corpus([s for s, _ in TRIO], [t for _, t in TRIO], SelectorConfig(), EN)
        assert [p.index for p in corpus.pairs] == [0, 2]
        for pair in corpus.pairs:
            source, translation = TRIO[pair.index]
            assert pair.complex == source
            assert pair.simple == translation
            assert pair.provenance == "translated"
            assert pair.bleu >= 15.0
            assert pair.fres_gap >= 10.0
        assert corpus.drop_tally.dropped_fres == 1
        assert corpus.drop_tally.n_kept == 2

    def test_empty_input(self):
        corpus = build_corpus([], [], SelectorConfig(), EN)
        assert corpus.stats.total_pairs == 0
        assert corpus.pairs == []

    def test_selectors_disabled_is_unlabeled_passthrough(self):
        targets = [s for s, _ in TRIO] + ["same."]
        translations = [t for _, t in TRIO] + ["same."]
        config = SelectorConfig(enable_bleu=False, enable_fres=False)
        corpus = build_corpus(targets, translations, config, EN)
        assert len(corpus.pairs) == 4
        assert all(p.provenance == "unlabeled" for p in corpus.pairs)
        assert [p.complex for p in corpus.pairs] == targets
        assert [p.simple for p in corpus.pairs] == translations

    def test_dedup_flag(self):
        targets, translations = make_aligned_streams(60, seed=7)
        config = SelectorConfig(enable_bleu=False, enable_fres=False, dedup=True)
        corpus = build_corpus(targets, translations, config, EN)
        keys = [(p.complex, p.simple) for p in corpus.pairs]
        assert len(keys) == len(set(keys))
        assert corpus.drop_tally.dropped_duplicate >= 1

    def test_every_kept_pair_satisfies_both_thresholds(self):
        targets, translations = make_aligned_streams(300, seed=11)
        corpus = build_corpus(targets, translations, SelectorConfig(), EN)
        assert corpus.pairs, "fixture should produce survivors"
        for pair in corpus.pairs:
            assert pair.bleu >= 15.0
            assert pair.fres_gap >= 10.0
            assert pair.complex != pair.simple
            assert fres(pair.simple, EN) - fres(pair.complex, EN) == pytest.approx(
                pair.fres_gap, abs=1e-9
            )

    def test_output_order_is_stable_subsequence(self):
        targets, translations = make_aligned_streams(300, seed=11)
        corpus = build_corpus(targets, translations, SelectorConfig(), EN)
        indices = [p.index for p in corpus.pairs]
        assert indices == sorted(indices)
        assert len(set(indices)) == len(indices)

    def test_workers_do_not_change_output(self):
        targets, translations = make_aligned_streams(200, seed=13)
        one = build_corpus(targets, translations, SelectorConfig(), EN, workers=1)
        four = build_corpus(list(targets), list(translations), SelectorConfig(), EN, workers=4)
        assert [(p.complex, p.simple, p.bleu) for p in one.pairs] == [
            (p.complex, p.simple, p.bleu) for p in four.pairs
        ]

    def test_a_custom_profile_reaches_the_workers_by_value(self):
        # Pickled by value, like every profile (see test_textprep).
        custom = replace(EN, lang_code="en-custom", k2=1.3, k3=70.0)
        targets, translations = make_aligned_streams(200, seed=13)
        config = SelectorConfig()
        one = build_corpus(targets, translations, config, custom, workers=1)
        two = build_corpus(targets, translations, config, custom, workers=2)
        assert one.lang == two.lang == "en-custom"
        assert (one.pairs, one.stats, one.drop_tally) == (two.pairs, two.stats, two.drop_tally)
        # The coefficients set every reading ease, so the shipped profile gives other pairs.
        assert one.pairs != build_corpus(targets, translations, config, EN).pairs
        variants = [ablate(targets, translations, custom, workers=n) for n in (1, 2)]
        for name in ABLATION_VARIANTS:
            in_process, pooled = (corpora[name] for corpora in variants)
            assert in_process.pairs and in_process.pairs == pooled.pairs, name
            assert (in_process.stats, in_process.drop_tally) == (pooled.stats, pooled.drop_tally)

    def test_a_worker_error_reaches_the_caller_as_in_process(self):
        # A string coefficient makes every reading ease fail inside the worker.
        broken = replace(EN, k1="x")
        errors = []
        for workers in (1, 2):
            targets, translations = make_aligned_streams(100, seed=13)
            with pytest.raises(TypeError) as raised:
                build_corpus(targets, translations, SelectorConfig(), broken, workers=workers)
            errors.append((type(raised.value), str(raised.value)))
        assert errors[0] == errors[1]
        assert errors[0][1] == "unsupported operand type(s) for -: 'str' and 'float'"

    def test_a_worker_that_dies_ends_the_run(self, child_env):
        # Unpickling this profile in a worker ends that worker at once, as a kill would.
        script = textwrap.dedent("""
            import os
            from sscorpus.pipeline import SelectorConfig, build_corpus

            class Fatal:
                def __reduce__(self):
                    return os._exit, (3,)

            lines = ["The cat sat on the mat."] * 1000
            build_corpus(lines, lines, SelectorConfig(), Fatal(), workers=2)
        """)
        started = time.monotonic()
        result = subprocess.run(
            [sys.executable, "-c", script], env=child_env, capture_output=True, text=True, timeout=120
        )
        assert result.returncode != 0
        assert "BrokenProcessPool" in result.stderr
        assert time.monotonic() - started < 60

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads SigBlk (Linux only)")
    def test_every_worker_starts_with_sigint_blocked(self, child_env):
        # Ctrl-C must reach the main process alone. A worker design whose first process starts
        # before multiprocessing's resource tracker, inside the SIGINT mask, gets a worker that
        # takes the signal: starting the tracker unblocks SIGINT in the calling thread.
        script = textwrap.dedent("""
            import multiprocessing, signal
            from sscorpus.pipeline import CHUNK_SIZE, SelectorConfig, build_corpus
            from sscorpus.textprep import get_profile

            def sigint_blocked(pid):
                with open(f"/proc/{pid}/status") as status:
                    mask = next(line for line in status if line.startswith("SigBlk:")).split()[1]
                return bool(int(mask, 16) >> (signal.SIGINT - 1) & 1)

            blocked = {}

            def translations(lines):
                for k, line in enumerate(lines):
                    if k % CHUNK_SIZE == 0 and k >= 3 * CHUNK_SIZE:  # a few chunks in
                        for worker in multiprocessing.active_children():
                            blocked.setdefault(worker.pid, sigint_blocked(worker.pid))
                    yield line

            lines = ["The cat sat on the mat."] * (20 * CHUNK_SIZE)
            build_corpus(lines, translations(lines), SelectorConfig(), get_profile("en"), workers=2)
            print(*blocked.values())
        """)
        result = subprocess.run(
            [sys.executable, "-c", script], env=child_env, capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 0, result.stderr
        blocked = result.stdout.split()  # one True or False per worker seen
        assert blocked and set(blocked) == {"True"}, blocked

    def test_chunks_larger_than_the_pipe_buffers_give_the_same_corpora(self, child_env):
        # Each sentence repeated 60 times: a 64-pair chunk and its reply hold about 580,000
        # characters, more than a pipe or socket buffer (64 KiB and 208 KiB on Linux), so a
        # worker pipe design that waits on both ends at once would hang here.
        script = textwrap.dedent("""
            from synth import make_aligned_streams
            from sscorpus.pipeline import SelectorConfig, ablate, build_corpus
            from sscorpus.textprep import get_profile

            en = get_profile("en")
            targets, translations = (
                [" ".join([line] * 60) for line in side] for side in make_aligned_streams(200, 13)
            )
            assert sum(map(len, targets[:64] + translations[:64])) > 500_000

            def same(a, b):
                return a.pairs and (a.pairs, a.stats, a.drop_tally) == (b.pairs, b.stats, b.drop_tally)

            config = SelectorConfig()
            one, two = (build_corpus(targets, translations, config, en, workers=n) for n in (1, 2))
            assert same(one, two)
            one, two = (ablate(targets, translations, en, config, workers=n) for n in (1, 2))
            assert all(same(one[name], two[name]) for name in one)
            print("same")
        """)
        env = {**child_env, "PYTHONPATH": os.pathsep.join((child_env["PYTHONPATH"], TESTS))}
        result = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert (result.returncode, result.stdout, result.stderr) == (0, "same\n", "")


class TestFilterAlgebra:
    def test_filters_commute(self):
        targets, translations = make_aligned_streams(400, seed=17)
        pairs = list(generate_pseudo_pairs(targets, translations))
        config = SelectorConfig()

        bleu_then_fres = {
            lp.index
            for lp in fres_selector(bleu_selector(iter(pairs), config, DropTally()), config, EN, DropTally())
        }

        fresh = list(generate_pseudo_pairs(targets, translations))
        fres_first = {lp.index for lp in fres_selector(iter(fresh), config, EN, DropTally())}
        fresh2 = list(generate_pseudo_pairs(targets, translations))
        bleu_only = {p.index for p in bleu_selector(iter(fresh2), config, DropTally())}

        assert bleu_then_fres == fres_first & bleu_only

    def test_raising_thresholds_never_grows_output(self):
        targets, translations = make_aligned_streams(400, seed=19)
        base = build_corpus(targets, translations, SelectorConfig(), EN)
        base_indices = {p.index for p in base.pairs}
        for config in (SelectorConfig(h_bleu=30.0), SelectorConfig(h_fres=20.0),
                       SelectorConfig(h_bleu=30.0, h_fres=20.0)):
            tighter = build_corpus(list(targets), list(translations), config, EN)
            assert {p.index for p in tighter.pairs} <= base_indices


class TestAblate:
    def test_subset_laws_and_identity_trace(self):
        targets = [s for s, _ in TRIO] + ["the same sentence."]
        translations = [t for _, t in TRIO] + ["the same sentence."]
        variants = ablate(targets, translations, EN)
        indices = {name: {p.index for p in corpus.pairs} for name, corpus in variants.items()}

        assert indices["full"] <= indices["no_bleu"] <= indices["pseudo"]
        assert indices["full"] <= indices["no_fres"] <= indices["pseudo"]
        # the identity pair (index 3) survives only where no selector runs
        assert 3 in indices["pseudo"]
        assert 3 not in indices["no_fres"]  # identity filter is part of the BLEU stage
        assert 3 not in indices["no_bleu"]  # zero ease gap fails the threshold
        assert 3 not in indices["full"]

    def test_variant_kept_counts_on_synthetic_fixture(self):
        targets, translations = make_aligned_streams(500, seed=23)
        variants = ablate(targets, translations, EN)
        sizes = {name: len(corpus.pairs) for name, corpus in variants.items()}
        assert sizes["pseudo"] == 500
        assert sizes["full"] <= sizes["no_bleu"] <= sizes["pseudo"]
        assert sizes["full"] <= sizes["no_fres"] <= sizes["pseudo"]

    def test_pair_failing_only_bleu_appears_in_no_bleu_only(self):
        # Large ease gap but zero n-gram overlap: fails BLEU, passes the gap.
        source = " ".join(["investigation"] * 12) + "."
        translation = " ".join(["go"] * 4) + "."
        variants = ablate([source], [translation], EN)
        assert len(variants["no_bleu"].pairs) == 1
        assert len(variants["full"].pairs) == 0
        assert len(variants["no_fres"].pairs) == 0


class TestSubset:
    def make_corpus(self, n=50):
        targets, translations = make_aligned_streams(n, seed=29)
        config = SelectorConfig(enable_bleu=False, enable_fres=False)
        return build_corpus(targets, translations, config, EN)

    def test_full_size_subset_is_identity(self):
        corpus = self.make_corpus()
        same = subset(corpus, len(corpus.pairs), seed=123)
        assert [(p.complex, p.simple) for p in same.pairs] == [
            (p.complex, p.simple) for p in corpus.pairs
        ]

    def test_empty_subset(self):
        corpus = self.make_corpus()
        empty = subset(corpus, 0, seed=1)
        assert empty.pairs == []
        assert empty.stats.total_pairs == 0

    def test_deterministic_and_order_preserving(self):
        corpus = self.make_corpus()
        a = subset(corpus, 10, seed=7)
        b = subset(corpus, 10, seed=7)
        assert [(p.complex, p.simple) for p in a.pairs] == [(p.complex, p.simple) for p in b.pairs]
        positions = [p.index for p in a.pairs]
        assert positions == sorted(positions)

    def test_oversample_is_an_error(self):
        corpus = self.make_corpus(10)
        with pytest.raises(ValueError, match="cannot sample"):
            subset(corpus, 11, seed=0)


class TestCorpusStats:
    def test_hand_counted_example(self):
        pairs = [
            LabeledPair("a b", "x", 0.0, "unlabeled", 0),
            LabeledPair("a c", "y z", 0.0, "unlabeled", 1),
        ]
        stats = compute_corpus_stats(pairs)
        assert stats.vocab_complex == 3
        assert stats.vocab_simple == 3
        assert stats.avg_len_complex == pytest.approx(2.0)
        assert stats.avg_len_simple == pytest.approx(1.5)
        assert stats.total_pairs == 2

    def test_empty_corpus_is_all_zeros(self):
        corpus = build_corpus([], [], SelectorConfig(), EN)
        stats = compute_corpus_stats(corpus.pairs)
        assert (stats.vocab_complex, stats.vocab_simple, stats.total_pairs) == (0, 0, 0)
        assert stats.avg_len_complex == 0.0

    def test_vocabulary_is_case_sensitive(self):
        pairs = [LabeledPair("The the", "x", 0.0, "unlabeled", 0)]
        assert compute_corpus_stats(pairs).vocab_complex == 2


@pytest.fixture
def scheme_calls(monkeypatch):
    """Count the pipeline's calls of each tokenizer and counter, and of the BLEU kernel, by name."""
    calls = dict.fromkeys(("metric_tokens", "text_stats", "tokenize_words", "_pair_bleu"), 0)
    for name in calls:
        original = getattr(pipeline, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(pipeline, name, counted)
    return calls


class TestOneComputationPerScheme:
    N = 400

    def test_ablate_tokenizes_and_counts_each_sentence_once(self, scheme_calls):
        targets, translations = make_aligned_streams(self.N, seed=109)
        variants = ablate(targets, translations, EN)
        assert len(variants["pseudo"].pairs) == self.N
        assert scheme_calls == {
            "metric_tokens": 2 * self.N,
            "text_stats": 2 * self.N,
            "tokenize_words": 0,
            "_pair_bleu": self.N,
        }

    def assert_scored_where_reached(self, scheme_calls, config, n_bleu, n_stats):
        # A pair is scored only when a check reaches it: BLEU (and its two token lists) for the
        # pairs the identity check keeps, reading ease for both sides of the BLEU survivors.
        targets, translations = make_aligned_streams(self.N, seed=109)
        corpus = build_corpus(targets, translations, config, EN)
        assert corpus.pairs
        tally = corpus.drop_tally
        reached_bleu = tally.n_input - (tally.dropped_identity if config.drop_identity else 0)
        assert scheme_calls == {
            "metric_tokens": 2 * reached_bleu,
            "text_stats": 2 * (reached_bleu - tally.dropped_bleu),
            "tokenize_words": 0,
            "_pair_bleu": reached_bleu,
        }
        assert (scheme_calls["_pair_bleu"], scheme_calls["text_stats"]) == (n_bleu, n_stats)

    def test_default_build_reuses_the_selectors_word_counts(self, scheme_calls):
        self.assert_scored_where_reached(scheme_calls, SelectorConfig(), 371, 498)

    def test_without_identity_drops_every_pair_reaches_bleu(self, scheme_calls):
        self.assert_scored_where_reached(scheme_calls, SelectorConfig(drop_identity=False), 400, 556)

    def test_words_are_counted_for_stats_only_when_no_check_counted_them(self, scheme_calls):
        targets, translations = make_aligned_streams(self.N, seed=109)
        config = SelectorConfig(enable_fres=False)
        corpus = build_corpus(targets, translations, config, EN)
        assert scheme_calls["text_stats"] == 0
        assert scheme_calls["tokenize_words"] == 2 * len(corpus.pairs) > 0
        assert corpus.stats == compute_corpus_stats(corpus.pairs)

    def test_a_pre_scored_bleu_is_used_as_given(self, scheme_calls):
        source = "Zebras are running extraordinarily energetically nowadays."
        pair = SentencePair(source, "Cats sit.", 0, bleu=99.0)  # unrelated: its BLEU is about 0
        (survivor,) = bleu_selector([pair], SelectorConfig(), DropTally())
        assert survivor.bleu == 99.0
        (labeled,) = fres_selector(bleu_selector([pair], SelectorConfig()), SelectorConfig(), EN)
        assert labeled.bleu == 99.0
        assert labeled.provenance == "translated"
        assert scheme_calls["_pair_bleu"] == scheme_calls["metric_tokens"] == 0

    def test_a_pre_scored_reading_ease_is_used_as_given(self, scheme_calls):
        pair = SentencePair("Zebras run.", "Cats sit on mats.", 0, fres_source=-50.0)
        (labeled,) = fres_selector([pair], SelectorConfig(), EN)
        assert scheme_calls["text_stats"] == 1
        assert labeled.fres_complex == -50.0
        assert labeled.fres_simple == fres("Cats sit on mats.", EN)
        assert labeled.fres_gap == labeled.fres_simple + 50.0
