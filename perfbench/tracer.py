"""In-memory span tracer for traced benchmark passes.

Spans are recorded from outside the package: :func:`install` replaces each
public callable of ``sscorpus`` in every module namespace that binds it, so
callers that look the name up at call time go through a timing wrapper.
Nothing under ``src/`` is edited.

Each thread keeps its own span stack and its own table keyed by
``(span, parent)`` with ``[calls, total_s, self_s, items]``. Self time is the
span's duration minus the time covered by its child spans; ``items`` counts
values yielded by traced iterators. Only the pass's own process is traced;
the benchmark runs every workload with one scoring worker, so no scoring
happens in another process.
"""

from __future__ import annotations

import functools
import threading
import time

_clock = time.perf_counter

# span name -> (module name under sscorpus, attribute) for plain calls
CALL_SPANS = {
    "textprep.metric_tokens": ("textprep", "metric_tokens"),
    "textprep.text_stats": ("textprep", "text_stats"),
    "textprep.tokenize_words": ("textprep", "tokenize_words"),
    "metrics.sentence_bleu": ("metrics", "sentence_bleu"),
    "metrics.fres": ("metrics", "fres"),
    "metrics.sari": ("metrics", "sari"),
    "metrics.corpus_bleu": ("metrics", "corpus_bleu"),
    "metrics.corpus_fkgl": ("metrics", "corpus_fkgl"),
    "metrics.corpus_fres": ("metrics", "corpus_fres"),
    "metrics.evaluate": ("metrics", "evaluate"),
    "pipeline.score_pair": ("pipeline", "score_pair"),
    "pipeline.build_corpus": ("pipeline", "build_corpus"),
    "pipeline.ablate": ("pipeline", "ablate"),
    "pipeline.compute_corpus_stats": ("pipeline", "compute_corpus_stats"),
    "ingest.count_lines": ("ingest", "count_lines"),
    "ingest.write_corpus": ("ingest", "write_corpus"),
    "ingest.read_eval_dataset": ("ingest", "read_eval_dataset"),
    "cli.main": ("cli", "main"),
}

# span name -> (module, attribute) for callables that return an iterator;
# each next() on the returned iterator is one span.
ITER_SPANS = {
    "ingest.read": ("ingest", "iter_lines"),
}


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: list[dict] = []
        # the creating thread's state, reached without a thread-local lookup
        self._owner = threading.get_ident()
        self._owner_state: tuple[list, dict] = ([], {})
        self._tables.append(self._owner_state[1])

    def _state(self) -> tuple[list, dict]:
        if threading.get_ident() == self._owner:
            return self._owner_state
        local = self._local
        try:
            return local.stack, local.table
        except AttributeError:
            local.stack, local.table = [], {}
            with self._lock:
                self._tables.append(local.table)
            return local.stack, local.table

    @staticmethod
    def _close(stack: list, table: dict, frame: list, elapsed: float, items: int) -> None:
        stack.pop()
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[1] += elapsed
        key = (frame[0], parent[0] if parent is not None else "-")
        row = table.get(key)
        if row is None:
            table[key] = [1, elapsed, elapsed - frame[1], items]
        else:
            row[0] += 1
            row[1] += elapsed
            row[2] += elapsed - frame[1]
            row[3] += items

    def call(self, name: str, fn):
        """Wrap ``fn`` so every call is one span named ``name``."""
        state, close, clock = self._state, self._close, _clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, table = state()
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                close(stack, table, frame, clock() - start, 0)

        return traced

    def iterate(self, name: str, iterable) -> "_TracedIterator":
        """Iterator over ``iterable`` whose every next() is one span named ``name``."""
        return _TracedIterator(self, name, iter(iterable))

    def rows(self) -> list[list]:
        """Merged ``[span, parent, calls, total_s, self_s, items]`` rows over all threads."""
        merged: dict = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for key, row in list(table.items()):
                into = merged.setdefault(key, [0, 0.0, 0.0, 0])
                for i, value in enumerate(row):
                    into[i] += value
        return [[name, parent, *row] for (name, parent), row in sorted(merged.items())]


class _TracedIterator:
    __slots__ = ("_tracer", "_name", "_it")

    def __init__(self, tracer: Tracer, name: str, it) -> None:
        self._tracer = tracer
        self._name = name
        self._it = it

    def __iter__(self):
        return self

    def __next__(self):
        stack, table = self._tracer._state()
        frame = [self._name, 0.0]
        stack.append(frame)
        items = 0
        start = _clock()
        try:
            value = next(self._it)
            items = 1
            return value
        finally:
            Tracer._close(stack, table, frame, _clock() - start, items)


def _rebind(modules: dict, original, wrapped) -> None:
    for module in modules.values():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)


def install(tracer: Tracer) -> None:
    """Wrap the package's public callables so their calls become spans.

    A name the package no longer defines is skipped, and its span reads zero.
    """
    from sscorpus import cli, ingest, metrics, pipeline, textprep

    modules = {
        "textprep": textprep,
        "metrics": metrics,
        "pipeline": pipeline,
        "ingest": ingest,
        "cli": cli,
    }
    for name, (module_name, attr) in CALL_SPANS.items():
        original = getattr(modules[module_name], attr, None)
        if callable(original):
            _rebind(modules, original, tracer.call(name, original))

    for name, (module_name, attr) in ITER_SPANS.items():
        original = getattr(modules[module_name], attr, None)
        if callable(original):

            def returns_traced(*args, _name=name, _original=original, **kwargs):
                return tracer.iterate(_name, _original(*args, **kwargs))

            _rebind(modules, original, functools.wraps(original)(returns_traced))


# lru caches read after a traced pass: label -> (module, attribute)
CACHES = {
    "textprep.syllable_cache": ("textprep", "_word_syllables"),
    "metrics.fkgl_syllable_cache": ("metrics", "_fkgl_syllables"),
}


def cache_counts() -> dict:
    """``{label: [hits, misses]}`` for each cache that still exists."""
    import importlib

    counts = {}
    for label, (module_name, attr) in CACHES.items():
        module = importlib.import_module(f"sscorpus.{module_name}")
        info = getattr(getattr(module, attr, None), "cache_info", None)
        if info is not None:
            stats = info()
            counts[label] = [stats.hits, stats.misses]
    return counts
