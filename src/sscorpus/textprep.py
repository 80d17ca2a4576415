"""Tokenization, word/sentence/syllable counting.

Two tokenization schemes coexist and must not be mixed: a metric-grade
scheme equivalent to the mteval-v13a conventions used by standard BLEU
tooling, and a readability-grade scheme that keeps only word-like tokens
for Flesch-style counting. All functions here are pure and safe to call
from any number of workers.

The 13a punctuation class is ASCII-only and context-free, so one
``str.translate`` table pads it. The three digit-aware rules run as regular
expressions only on text with a ``.`` or ``,`` before an ASCII digit, or a
digit before ``-``; elsewhere a second table pads every ``.`` and ``,``, as the
rules do there. Both tables map every ASCII code, most to itself: translate
raises and clears an exception for each character without an entry. A
non-ASCII character is looked up that slow way and gives the same tokens.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple


class TokenizedText(NamedTuple):
    tokens: tuple[str, ...]
    scheme: str


class TextStats(NamedTuple):
    n_words: int
    n_sentences: int
    n_syllables: int


@dataclass(frozen=True)
class LanguageProfile:
    """Reading-ease coefficients plus the vowel rules used to count syllables.

    The score for a text is ``k1 - k2 * (words/sentences) - k3 * (syllables/words)``.
    Profiles are immutable; use :func:`get_profile` to obtain the shipped ones.
    """

    lang_code: str
    k1: float
    k2: float
    k3: float
    vowels: frozenset[str]
    # Drop a word-final single 'e' after a consonant (English-style).
    silent_final_e: bool = False
    # Split adjacent strong vowels inside a cluster (Spanish-style hiatus);
    # accented i/u count as strong because the accent breaks the diphthong.
    strong_vowels: frozenset[str] = frozenset()


_EN_VOWELS = frozenset("aeiouy")
_FR_VOWELS = frozenset("aeiouyàâéèêëîïôùûü")
_ES_VOWELS = frozenset("aeiouáéíóúü")
_ES_STRONG = frozenset("aeoáéóíú")

#: Shipped profiles. Two Spanish coefficient sets exist in circulation:
#: "es-paper" keeps a widely reprinted set whose k2/k3 magnitudes look
#: swapped relative to the usual formula roles; "es-fh" uses the
#: Fernández-Huerta coefficients. Callers must choose one explicitly.
PROFILES: dict[str, LanguageProfile] = {
    "en": LanguageProfile("en", 206.835, 1.015, 84.6, _EN_VOWELS, silent_final_e=True),
    "fr": LanguageProfile("fr", 207.0, 1.015, 73.6, _FR_VOWELS),
    "es-paper": LanguageProfile("es-paper", 180.0, 58.5, 1.0, _ES_VOWELS, strong_vowels=_ES_STRONG),
    "es-fh": LanguageProfile("es-fh", 206.84, 1.02, 60.0, _ES_VOWELS, strong_vowels=_ES_STRONG),
}


def get_profile(lang_code: str) -> LanguageProfile:
    try:
        return PROFILES[lang_code]
    except KeyError:
        known = ", ".join(sorted(PROFILES))
        raise ValueError(f"unknown language profile {lang_code!r} (known: {known})") from None


# --- metric-grade tokenization (mteval-v13a compatible) ---

# Punctuation split rules; ',' '.' and digits are excluded from the class and
# handled by the digit-aware rules below.
_13A_PUNCT = re.compile(r"([\{-\~\[-\` -\&\(-\+\:-\@\/])")
_13A_PERIOD_AFTER = re.compile(r"([^0-9])([\.,])")
_13A_PERIOD_BEFORE = re.compile(r"([\.,])([^0-9])")
_13A_DIGIT_DASH = re.compile(r"([0-9])(-)")
# Where those rules differ from padding every "." and ",": a "." or "," before a digit, or a
# "-" after one. Matching "-.," first, then looking around, takes under half the time of
# "[.,][0-9]|[0-9]-".
_13A_DIGIT_CONTEXT = re.compile(r"[-.,](?:(?<=[.,])(?=[0-9])|(?<=[0-9]-))")

# The space maps to itself: padding it changes only whitespace, which the split discards.
_13A_PUNCT_TABLE = tuple(
    f" {c} " if c != " " and _13A_PUNCT.fullmatch(c) else c for c in map(chr, range(128))
)
_13A_DIGIT_FREE_TABLE = tuple(f" {c} " if c in ".," else c for c in _13A_PUNCT_TABLE)


def _has_digit(text: str) -> bool:
    # Ten substring scans take under half the time of one regex search.
    return (
        "0" in text or "1" in text or "2" in text or "3" in text or "4" in text
        or "5" in text or "6" in text or "7" in text or "8" in text or "9" in text
    )


def _split_pair(match: re.Match) -> str:
    return f"{match[1]} {match[2]} "


def _split_pair_before(match: re.Match) -> str:
    return f" {match[1]} {match[2]}"


def metric_tokens(text: str) -> list[str]:
    """Tokenize for n-gram metrics: punctuation split per the 13a rules, case preserved."""
    norm = text.replace("<skipped>", "")
    if "\n" in norm:
        norm = norm.replace("-\n", "").replace("\n", " ")
    if "&" in norm:
        norm = (
            norm.replace("&quot;", '"')
            .replace("&amp;", "&")
            .replace("&lt;", "<")
            .replace("&gt;", ">")
        )
    if not (_has_digit(norm) and _13A_DIGIT_CONTEXT.search(norm)):
        return norm.translate(_13A_DIGIT_FREE_TABLE).split()
    norm = f" {norm} ".translate(_13A_PUNCT_TABLE)
    norm = _13A_PERIOD_AFTER.sub(_split_pair, norm)
    norm = _13A_PERIOD_BEFORE.sub(_split_pair_before, norm)
    return _13A_DIGIT_DASH.sub(_split_pair, norm).split()


# --- readability-grade counting ---

# Words are maximal alphanumeric runs; internal hyphens/apostrophes join,
# so hyphenated compounds count as one word.
_WORD_RE = re.compile(r"[^\W_]+(?:['’\-][^\W_]+)*", re.UNICODE)

# Terminal punctuation ends a sentence; a period between two digits is a
# decimal point, not a boundary. Matching each sentence from its first
# non-blank character keeps the count linear on long blank runs.
_DECIMAL_DOT = re.compile(r"(?<=[0-9])\.(?=[0-9])")
_SENTENCE = re.compile(r"[^\s.!?…][^.!?…]*")

_WORD_PART_SPLIT = re.compile(r"['’\-]")


def tokenize_words(text: str) -> TokenizedText:
    """Word tokens only (punctuation dropped), for readability counting.

    The rule is the same for every language profile.
    """
    return TokenizedText(tuple(_WORD_RE.findall(text)), "readability")


def split_sentences(text: str) -> int:
    """Number of sentences under terminal-punctuation splitting.

    Trailing text without terminal punctuation counts as one sentence;
    blank input counts zero.
    """
    if _has_digit(text):
        text = _DECIMAL_DOT.sub("\x00", text)
    return len(_SENTENCE.findall(text))


@lru_cache(maxsize=None)
def _syllable_counter(
    vowels: frozenset[str], silent_final_e: bool, strong: frozenset[str]
) -> Callable[[str], int]:
    """:func:`count_syllables` for one set of vowel rules, with its own word cache.

    Keyed by the three profile fields the count reads (``strong`` is
    ``strong_vowels``), whose hashes are stored, not by the whole profile: an
    unpickled copy, or another profile with the same rules, finds the same cache.
    """
    vowel_re = re.compile("[{}]+".format("".join(sorted(vowels))))

    # lru_cache here is load-bearing for throughput: corpus text repeats words heavily.
    @lru_cache(maxsize=2**17)
    def word_syllables(word: str) -> int:
        total = 0
        for part in _WORD_PART_SPLIT.split(word.lower()):
            clusters = vowel_re.findall(part)
            if not clusters:
                continue
            count = len(clusters)
            if strong:
                for cluster in clusters:
                    count += sum(
                        1 for a, b in zip(cluster, cluster[1:]) if a in strong and b in strong
                    )
            if silent_final_e and count > 1 and part.endswith("e") and part[-2] not in vowels:
                count -= 1
            total += count
        return max(total, 1)

    return word_syllables


def count_syllables(word: str, profile: LanguageProfile) -> int:
    """Syllables in a single word token, by maximal vowel-letter clusters.

    Hyphen/apostrophe parts are counted separately so compounds add up;
    words without vowel letters (digits, initialisms) count as one syllable.
    """
    return _syllable_counter(profile.vowels, profile.silent_final_e, profile.strong_vowels)(word)


def text_stats(text: str, profile: LanguageProfile) -> TextStats:
    """Pooled word/sentence/syllable counts for one text segment."""
    words = _WORD_RE.findall(text)
    if not words:
        return TextStats(0, split_sentences(text), 0)
    n_sentences = max(split_sentences(text), 1)
    counter = _syllable_counter(profile.vowels, profile.silent_final_e, profile.strong_vowels)
    return TextStats(len(words), n_sentences, sum(map(counter, words)))
