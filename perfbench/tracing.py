"""Spans and counters recorded around calls into the program's layers.

With tracing on, ``instrument`` replaces public functions and methods of the
program's modules with wrappers for the duration of a run, so calls the
program makes internally (``build_cache`` scoring each pair through
``table_compatibility``, ``run_query`` calling ``retrieve_topk``) are seen
too. Coarse calls become spans (name, phase, repetition, start, end, parent
span, request); hot calls only bump counters and add up their time. Spans
stay in memory and are written out when the run ends. With tracing off the
benchmark uses ``NullTracer`` and nothing is replaced.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict
from pathlib import Path

from tablescout import compatibility, corpus, evaluation, indexing, pipeline, services


class NullTracer:
    """Tracing off: spans and counters cost one attribute lookup."""

    phase = "setup"
    rep = 0
    request = None

    def span(self, name: str):
        return contextlib.nullcontext()

    def add(self, name: str, value: float = 1.0) -> None:
        pass


class Tracer(NullTracer):
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: dict[tuple[str, int, str], float] = defaultdict(float)
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = {
            "name": name, "phase": self.phase, "rep": self.rep, "request": self.request,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(), "end": None,
        }
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, value: float = 1.0) -> None:
        self.counts[(self.phase, self.rep, name)] += value

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")

    # -- aggregation -------------------------------------------------------

    def _phase_of(self, name: str, phases: tuple[str, ...]) -> str | None:
        seen = {s["phase"] for s in self.spans if s["name"] == name}
        seen |= {p for p, _, n in self.counts if n == name}
        return next((p for p in phases if p in seen), None)

    def per_rep(self, name: str, phases: tuple[str, ...]) -> list[float]:
        """Seconds in spans of ``name`` plus its counter, summed per
        repetition of the first phase in ``phases`` where it occurs."""
        phase = self._phase_of(name, phases)
        totals: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["name"] == name and s["phase"] == phase:
                totals[s["rep"]] += s["end"] - s["start"]
        for (p, rep, n), value in self.counts.items():
            if n == name and p == phase:
                totals[rep] += value
        return [totals[r] for r in sorted(totals)] or [0.0]

    def durations(self, name: str, phases: tuple[str, ...]) -> list[float]:
        """Seconds of each span of ``name`` in the first phase in ``phases``
        where it occurs, pooled over repetitions."""
        phase = self._phase_of(name, phases)
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name and s["phase"] == phase] or [0.0]


def _span_wrapper(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)
    return wrapper


def _timed_counter(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.add(name + "_s", time.perf_counter() - start)
            tracer.add(name + "_calls")
    return wrapper


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap the layers' public functions for the duration of the block."""
    saved: list[tuple[object, str, object]] = []

    def replace(owner, attr: str, make) -> None:
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        if isinstance(original, classmethod):
            setattr(owner, attr, classmethod(make(original.__func__)))
        else:
            setattr(owner, attr, make(original))

    spans = [
        (corpus, "load_tables", "corpus.load_tables"),
        (corpus, "pool_corpora", "corpus.pool"),
        (corpus, "save_corpus", "corpus.save"),
        (corpus, "load_corpus", "corpus.load"),
        (indexing, "enrich_tables", "indexing.enrich"),
        (indexing.DenseIndex, "build", "indexing.index_build"),
        (indexing.DenseIndex, "save", "indexing.index_save"),
        (indexing.DenseIndex, "load", "indexing.index_load"),
        (indexing.DenseIndex, "search", "indexing.search"),
        (compatibility, "build_cache", "compatibility.build_cache"),
        (compatibility, "evaluate_cache", "compatibility.evaluate"),
        (compatibility.CompatibilityCache, "save", "compatibility.cache_save"),
        (compatibility.CompatibilityCache, "load", "compatibility.cache_load"),
        (services.CachingEmbedder, "save", "services.embed_cache_save"),
        (pipeline.OnlinePipeline, "run_query", "pipeline.query"),
        (pipeline, "retrieve_topk", "pipeline.retrieve"),
        (pipeline, "parse_selection", "pipeline.parse"),
        (pipeline, "adjust", "pipeline.adjust"),
        (evaluation, "generate_sql", "evaluation.generate_sql"),
        (evaluation, "execution_match", "evaluation.execute"),
    ]
    for owner, attr, name in spans:
        replace(owner, attr, lambda fn, name=name: _span_wrapper(tracer, name, fn))
    replace(compatibility, "table_compatibility", lambda fn: _timed_counter(tracer, "compatibility.table_pairs", fn))
    replace(indexing, "generate_purpose", lambda fn: _timed_counter(tracer, "indexing.purpose", fn))
    replace(services.ScriptedGenerator, "generate", lambda fn: _timed_counter(tracer, "services.generate", fn))

    def prompt(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span("pipeline.prompt"):
                request = fn(*args, **kwargs)
            tracer.add("pipeline.prompt_chars", len(request.prompt))
            tracer.add("pipeline.prompts")
            return request
        return wrapper

    def embed(fn):
        @functools.wraps(fn)
        def wrapper(self, text):
            before = self.backend_calls
            start = time.perf_counter()
            try:
                return fn(self, text)
            finally:
                tracer.add("services.embed_s", time.perf_counter() - start)
                tracer.add("services.embed_calls")
                tracer.add("services.embed_hits", 1.0 if self.backend_calls == before else 0.0)
        return wrapper

    def store_save(fn):
        @functools.wraps(fn)
        def wrapper(self):
            with tracer.span("indexing.store_save"):
                fn(self)
            path = self._path
            tracer.add("indexing.store_saves")
            tracer.add("indexing.store_written_bytes", path.stat().st_size if path is not None else 0)
        return wrapper

    replace(pipeline, "build_selection_prompt", prompt)
    replace(services.CachingEmbedder, "embed", embed)
    replace(indexing.EnrichmentStore, "save", store_save)
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
