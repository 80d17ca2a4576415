"""Deterministic synthetic bitext material for pipeline and acceptance tests.

The generated population deliberately spans the selector decision space:
identities, unrelated pairs (both easy and hard wording), light rewrites,
truncations, punctuation-only sides, and exact duplicates.
"""

from __future__ import annotations

import random

ONE_SYLLABLE = "go run sit see the cat dog sun day way big red old new top".split()
TWO_SYLLABLE = "hello window little paper table better walking sunny garden river".split()
MANY_SYLLABLE = (
    "complicated investigation extraordinary university necessary "
    "impossibility characteristic responsibility international documentation"
).split()
ALL_WORDS = ONE_SYLLABLE + TWO_SYLLABLE + MANY_SYLLABLE


def make_aligned_streams(n: int, seed: int = 7) -> tuple[list[str], list[str]]:
    """n line-aligned (target, translation) sentences covering all drop reasons."""
    rng = random.Random(seed)
    targets: list[str] = []
    translations: list[str] = []
    for i in range(n):
        base = [rng.choice(ALL_WORDS) for _ in range(rng.randint(4, 18))]
        source = " ".join(base) + "."
        kind = rng.random()
        if kind < 0.06:
            translation = source
        elif kind < 0.16:
            translation = " ".join(rng.choice(ONE_SYLLABLE) for _ in range(rng.randint(3, 9))) + "."
        elif kind < 0.24:
            translation = " ".join(rng.choice(MANY_SYLLABLE) for _ in range(rng.randint(4, 12))) + "."
        elif kind < 0.27:
            translation = rng.choice(["?!?", "... !!!", "12 345."])
        else:
            edited = [
                token if rng.random() > 0.3 else rng.choice(ONE_SYLLABLE + TWO_SYLLABLE)
                for token in base
            ]
            if rng.random() < 0.3:
                edited = edited[: max(2, len(edited) - rng.randint(1, 3))]
            translation = " ".join(edited) + "."
        targets.append(source)
        translations.append(translation)
    # exact duplicates of an earlier pair, for --dedup coverage
    if n >= 20:
        for slot in (n // 2, n - 1):
            targets[slot] = targets[3]
            translations[slot] = translations[3]
    return targets, translations


# Twenty consonant-vowel syllables, one per base-20 digit: a pseudo-word spells
# the digits of its rank, so each rank has its own word, a word has one syllable
# per digit, and frequent (low) ranks are short words.
SYLLABLES = [consonant + vowel for consonant in "bdgklmnprt" for vowel in "ao"]
HEAVY_TAILED_VOCABULARY = 2_000_000


def _spellings(n_digits: int) -> list[str]:
    """Every rank below 20**n_digits, spelled with exactly ``n_digits`` syllables."""
    words = [""]
    for _ in range(n_digits):
        words = [word + syllable for word in words for syllable in SYLLABLES]
    return words


_PADDED = _spellings(3)
_SHORT = SYLLABLES + _spellings(2)[20:] + _PADDED[400:]  # ranks below 8,000, no leading "ba"


def _pseudo_word(rank: int) -> str:
    return _SHORT[rank] if rank < 8000 else _SHORT[rank // 8000] + _PADDED[rank % 8000]


def make_heavy_tailed_streams(n: int, seed: int = 5) -> tuple[list[str], list[str]]:
    """n line-aligned (target, translation) sentences over a heavy-tailed vocabulary.

    Unlike ``make_aligned_streams``' 35 words, the vocabulary keeps growing
    with ``n``, as in real text (Heaps' law). A target sentence has 5-20
    words. Each word is the pseudo-word of rank ``int(V ** u**3) - 1``, for
    V = 2M and a uniform u, so low ranks are common (rank 0 is 36% of the
    words) and high ranks rare. The translation replaces each word with a
    fresh draw with probability 0.3. Distinct words over both sides at seed
    5: 50,440 at 20k pairs, 120,681 at 60k and 295,779 at 200k.
    """
    rng = random.Random(seed)
    draw = rng.random

    def word() -> str:
        return _pseudo_word(int(HEAVY_TAILED_VOCABULARY ** (draw() ** 3)) - 1)

    targets: list[str] = []
    translations: list[str] = []
    for _ in range(n):
        base = [word() for _ in range(rng.randint(5, 20))]
        targets.append(" ".join(base) + ".")
        translations.append(" ".join([w if draw() >= 0.3 else word() for w in base]) + ".")
    return targets, translations


def write_aligned_files(directory, n: int, seed: int = 7):
    """Write target/translation files for CLI-level tests; returns the two paths."""
    targets, translations = make_aligned_streams(n, seed)
    target_path = directory / "targets.txt"
    translation_path = directory / "translations.txt"
    target_path.write_text("\n".join(targets) + "\n", encoding="utf-8")
    translation_path.write_text("\n".join(translations) + "\n", encoding="utf-8")
    return target_path, translation_path
