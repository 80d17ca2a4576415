import pickle
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kernel_oracle as oracle

from sscorpus import textprep
from sscorpus.textprep import (
    PROFILES,
    _syllable_counter,
    count_syllables,
    get_profile,
    metric_tokens,
    split_sentences,
    text_stats,
    tokenize_words,
)

EN = get_profile("en")
FR = get_profile("fr")
ES = get_profile("es-fh")


class TestMetricTokenizer:
    def test_splits_punctuation(self):
        assert metric_tokens("Hello, world!") == ["Hello", ",", "world", "!"]

    def test_empty_input(self):
        assert metric_tokens("") == []

    def test_single_token(self):
        assert metric_tokens("abc") == ["abc"]

    def test_matches_reference_tokenizer(self, metric_expected):
        for case in metric_expected["tokenizer"]:
            assert metric_tokens(case["text"]) == case["tokens"], case["text"]

    @given(st.text(max_size=200))
    @settings(max_examples=200)
    def test_tokens_contain_no_whitespace(self, text):
        assert all(not any(ch.isspace() for ch in tok) for tok in metric_tokens(text))

    @given(st.text(max_size=200))
    @settings(max_examples=200)
    def test_join_and_retokenize_is_stable(self, text):
        tokens = metric_tokens(text)
        assert metric_tokens(" ".join(tokens)) == tokens

    @pytest.mark.parametrize("digit", "0123456789")
    def test_every_digit_takes_the_digit_aware_rules(self, digit):
        # Text without a digit pads every period and comma; one digit anywhere changes that.
        text = f"{digit}.{digit},{digit}-x, y.z"
        assert metric_tokens(text) == [f"{digit}.{digit},{digit}", "-", "x", ",", "y", ".", "z"]
        assert split_sentences(text) == 2

    def test_deterministic(self):
        text = 'He said: "don\'t go"… but they went; 100-200 people followed.'
        assert metric_tokens(text) == metric_tokens(text)

    @pytest.mark.parametrize(
        "text, tokens_of_lowered, lowered_tokens",
        [
            ("<SKIPPED>", [], ["<", "skipped", ">"]),
            ("&QUOT;", ['"'], ["&", "quot", ";"]),
            # Greek capital sigma lowercases to final sigma only at the end of a word.
            ("ΑΣ:Β", ["ασ", ":", "β"], ["ας", ":", "β"]),
        ],
    )
    def test_lowercasing_does_not_commute_with_tokenizing(
        self, text, tokens_of_lowered, lowered_tokens
    ):
        # Why SARI and FKGL tokenize lowercased text instead of lowercasing BLEU's tokens.
        assert metric_tokens(text.lower()) == tokens_of_lowered
        assert [token.lower() for token in metric_tokens(text)] == lowered_tokens


_DIGIT_RULES = ["_13A_PERIOD_AFTER", "_13A_PERIOD_BEFORE", "_13A_DIGIT_DASH"]


@pytest.fixture
def digit_rules_run(monkeypatch):
    """The names of the 13a digit rules that ran, in call order."""
    run: list[str] = []

    class Counted:
        def __init__(self, name):
            self.name, self.pattern = name, getattr(textprep, name)

        def sub(self, *args):
            run.append(self.name)
            return self.pattern.sub(*args)

    for name in _DIGIT_RULES:
        monkeypatch.setattr(textprep, name, Counted(name))
    return run


class TestDigitRulesOnlyWhereTheyAct:
    """Text with a digit runs the digit rules only if a "." or "," precedes a digit or "-" follows one."""

    @pytest.mark.parametrize("text", ["in 1990, it rained.", "1990."])
    def test_digits_without_that_context_run_no_rule(self, digit_rules_run, text):
        assert metric_tokens(text) == oracle.metric_tokens(text)
        assert digit_rules_run == []

    @pytest.mark.parametrize("text", ["1,000", "5-year"])
    def test_digits_in_that_context_run_every_rule(self, digit_rules_run, text):
        assert metric_tokens(text) == oracle.metric_tokens(text)
        assert digit_rules_run == _DIGIT_RULES


class TestWordTokenizer:
    def test_scheme_tag(self):
        assert tokenize_words("x").scheme == "readability"

    def test_word_count(self):
        assert len(tokenize_words("He says he gets scared.").tokens) == 5

    def test_empty(self):
        assert tokenize_words("").tokens == ()

    def test_hyphenated_compound_is_one_word(self):
        assert tokenize_words("state-of-the-art").tokens == ("state-of-the-art",)

    def test_numbers_count_as_words(self):
        assert len(tokenize_words("room 101 opens at 9").tokens) == 5

    def test_punctuation_dropped(self):
        assert tokenize_words("well, well... well!").tokens == ("well", "well", "well")

    @given(st.text(max_size=80), st.text(max_size=80))
    @settings(max_examples=200)
    def test_word_count_superadditive_over_spaces(self, a, b):
        n = lambda t: len(tokenize_words(t).tokens)
        assert n(a + " " + b) == n(a) + n(b)


class TestSentenceSplitting:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("A. B? C!", 3),
            ("no terminal punctuation", 1),
            ("", 0),
            ("   ", 0),
            ("One. Two.", 2),
            ("Wait... what?! Really…", 3),
            ("The rate is 3.5 percent.", 1),
            ("It was 1999. Then it ended.", 2),
        ],
    )
    def test_counts(self, text, expected):
        assert split_sentences(text) == expected

    def test_linear_on_long_lines(self):
        # A count that rescanned a blank run from each of its characters would
        # take hours on these; a linear one takes milliseconds.
        assert split_sentences(" " * 1_000_000 + ".") == 0
        assert split_sentences("word " * 200_000) == 1


class TestSyllables:
    @pytest.mark.parametrize(
        "word,expected",
        [
            ("cat", 1),
            ("coffee", 2),
            ("strength", 1),
            ("hello", 2),
            ("banana", 3),
            ("cake", 1),
            ("be", 1),
            ("rhythm", 1),
            ("mp3", 1),
            ("1234", 1),
            ("state-of-the-art", 4),
            ("he's", 1),
        ],
    )
    def test_english(self, word, expected):
        assert count_syllables(word, EN) == expected

    @pytest.mark.parametrize(
        "word,expected",
        [("beau", 1), ("oiseau", 2), ("fenêtre", 3), ("déjà", 2), ("oui", 1)],
    )
    def test_french(self, word, expected):
        assert count_syllables(word, FR) == expected

    @pytest.mark.parametrize(
        "word,expected",
        [("tierra", 2), ("país", 2), ("ciudad", 2), ("leer", 2), ("bueno", 2), ("día", 2)],
    )
    def test_spanish(self, word, expected):
        assert count_syllables(word, ES) == expected

    @given(st.text(alphabet=st.characters(whitelist_categories=("Ll", "Lu")), min_size=1, max_size=20))
    @settings(max_examples=200)
    def test_bounds(self, word):
        count = count_syllables(word, EN)
        n_vowels = sum(1 for ch in word.lower() if ch in EN.vowels)
        assert 1 <= count <= n_vowels + 1


class TestTextStats:
    def test_counts_nonnegative_and_consistent(self):
        stats = text_stats("The coffee was strong. Very strong!", EN)
        assert stats.n_words == 6
        assert stats.n_sentences == 2
        assert stats.n_syllables >= stats.n_words

    def test_empty(self):
        assert text_stats("", EN) == (0, 0, 0)

    def test_no_terminal_punctuation_is_one_sentence(self):
        assert text_stats("just some words here", EN).n_sentences == 1

    @given(st.text(max_size=120))
    @settings(max_examples=150)
    def test_syllables_at_least_words(self, text):
        stats = text_stats(text, EN)
        if stats.n_words:
            assert stats.n_syllables >= stats.n_words


class TestProfiles:
    def test_keys(self):
        assert set(PROFILES) == {"en", "fr", "es-paper", "es-fh"}

    def test_unknown_profile(self):
        with pytest.raises(ValueError, match="unknown language profile"):
            get_profile("xx")

    def test_profiles_immutable(self):
        with pytest.raises(AttributeError):
            EN.k1 = 0.0

    def test_profiles_pickle_by_value_and_count_alike(self):
        text = "The poet ate the cake. ¿Qué país? Très été."
        for profile in PROFILES.values():
            copy = pickle.loads(pickle.dumps(profile))
            assert copy == profile
            assert text_stats(text, copy) == text_stats(text, profile)
            for word in tokenize_words(text).tokens:
                assert count_syllables(word, copy) == count_syllables(word, profile)
        custom = replace(EN, k1=200.0)
        copy = pickle.loads(pickle.dumps(custom))
        assert copy == custom and copy is not custom
        assert text_stats("Cats sit.", copy) == text_stats("Cats sit.", EN)

    def test_profiles_with_the_same_vowel_rules_share_one_cache(self):
        _syllable_counter.cache_clear()
        text = "El poeta leyó un poema en el país."
        assert text_stats(text, PROFILES["es-paper"]) == text_stats(text, PROFILES["es-fh"])
        assert _syllable_counter.cache_info().currsize == 1

    @pytest.mark.parametrize(
        "shipped, variant, word, counts",
        [
            (EN, replace(EN, silent_final_e=False), "cake", (1, 2)),
            (ES, replace(ES, strong_vowels=frozenset()), "poeta", (3, 2)),
            (EN, replace(EN, vowels=EN.vowels - {"y"}), "happy", (2, 1)),
        ],
        ids=["silent_final_e", "strong_vowels", "vowels"],
    )
    def test_every_vowel_rule_field_keys_the_cache(self, shipped, variant, word, counts):
        # Each variant differs from a shipped profile in one rule field only; counting with
        # both, in both orders, shows a cache that left the field out as a wrong count.
        assert (oracle.count_syllables(word, shipped), oracle.count_syllables(word, variant)) == counts
        for pair in ((shipped, variant), (variant, shipped)):
            for profile in pair:
                expected = oracle.count_syllables(word, profile)
                assert count_syllables(word, profile) == expected
                assert text_stats(word, profile).n_syllables == expected
