"""The heavy-tailed bitext generator is deterministic and has the vocabulary it claims."""

from synth import make_heavy_tailed_streams


def distinct_words(*sides: list[str]) -> int:
    return len({word for side in sides for sentence in side for word in sentence[:-1].split()})


def test_heavy_tailed_streams_repeat_per_seed_and_grow_their_vocabulary():
    first = make_heavy_tailed_streams(20_000, seed=5)
    assert first == make_heavy_tailed_streams(20_000, seed=5)
    assert first != make_heavy_tailed_streams(20_000, seed=6)
    targets, translations = first
    assert len(targets) == len(translations) == 20_000
    assert all(5 <= len(sentence.split()) <= 20 for sentence in targets)
    assert distinct_words(targets, translations) == 50_440  # the figure the docstring states
    # Heaps' law: a longer text keeps adding words, unlike make_aligned_streams' 35.
    counts = [distinct_words(*make_heavy_tailed_streams(n, seed=5)) for n in (2_000, 6_000)]
    assert counts[0] < counts[1] < 50_440
