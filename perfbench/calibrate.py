"""Host-speed calibration: a fixed piece of Python work, timed around each pass.

The benchmark's hosts are shared virtual machines whose speed drifts by tens
of percent over seconds to minutes, for wall-clock and CPU time alike. Each
pass process runs ``host_seconds()`` right before its first call into the
CLI and right after its last; the harness scales the pass's times by
``REFERENCE_S`` over the mean of the two readings, which gives its times on
a host where this work takes ``REFERENCE_S``. Readings taken in the pass
process itself, next to the work, tracked the host's speed better than
readings taken in the harness process between passes.

    python3 perfbench/calibrate.py     # one reading, in seconds

The work mimics the scoring kernel's mix (regex tokenization, lowercasing,
n-gram ``Counter``s and their intersection, logarithms, vowel-group counting)
but imports nothing from ``sscorpus``, and it runs with the cyclic garbage
collector off, so neither the program's code nor the objects it leaves
behind can move it. Standard library only; its inputs are fixed, never
seeded.
"""

from __future__ import annotations

import contextlib
import gc
import math
import random
import re
import time
from collections import Counter

# Seconds this work takes on the reference host: a 2-vCPU virtual machine
# with Python 3.11, where it read 0.17 s to 0.31 s as the host's speed
# drifted. Only the scale of the reported figures depends on it.
REFERENCE_S = 0.2
ROUNDS = 8

_WORDS = (
    "go run sit see the cat dog sun day way big red old new top hello window little "
    "paper table better walking garden river complicated investigation university "
    "necessary international documentation, it's well-known (1995) 12.5 ; ! ?"
).split()
_PUNCT = re.compile(r"([\{-\~\[-\` -\&\(-\+\:-\@\/])")
_VOWELS = re.compile(r"[aeiouy]+")
_WORD = re.compile(r"[^\W_]+")


def _sentences() -> list[str]:
    rng = random.Random(20210901)
    return [
        " ".join(rng.choice(_WORDS) for _ in range(rng.randint(4, 24))) + "."
        for _ in range(400)
    ]


_SENTENCES = _sentences()


def _work(sentences: list[str] = _SENTENCES) -> float:
    total = 0.0
    previous: Counter = Counter()
    for sentence in sentences:
        tokens = _PUNCT.sub(r" \1 ", sentence).lower().split()
        grams: Counter = Counter()
        for order in range(1, 5):
            grams.update(tuple(tokens[i:i + order]) for i in range(len(tokens) - order + 1))
        matched = sum((grams & previous).values())
        total += math.exp(math.log(matched + 1) - math.log(sum(grams.values()) + 1))
        total += sum(len(_VOWELS.findall(word)) for word in _WORD.findall(sentence))
        previous = grams
    return total


_EXPECTED = _work()


@contextlib.contextmanager
def _collector_off():
    collecting = gc.isenabled()
    gc.disable()  # the work makes no reference cycles
    try:
        yield
    finally:
        if collecting:
            gc.enable()


def host_seconds() -> float:
    """Seconds this host takes for the fixed work, right now."""
    with _collector_off():
        start = time.perf_counter()
        for _ in range(ROUNDS):
            if _work() != _EXPECTED:
                raise RuntimeError("calibration work gave a different result")
        return time.perf_counter() - start


if __name__ == "__main__":
    print(host_seconds())
