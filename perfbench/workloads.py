"""The three workloads, run through the program's modules in the CLI's order.

Each step below repeats what one CLI command does, artifact for artifact:
``ingest`` (load sources, pool, write corpus.json and manifest.json),
``enrich`` (purposes, dense index, embedding cache), ``cache`` (pairwise
compatibility cache) and ``e2e`` (load artifacts, then per query retrieve,
select, restore, write SQL and execute it, then score). The benchmark calls
the modules itself so it can time each call; ``cli`` is the order it follows.
"""

from __future__ import annotations

import gc
import json
import random
import resource
import shutil
import statistics
import time
from pathlib import Path

import numpy as np

from tablescout import compatibility, corpus, evaluation, indexing, pipeline, services

import checks
from speed import Speed
from stub import PlannedModel

K = pipeline.DEFAULT_TOP_K
TAU = pipeline.DEFAULT_RESTORE_THRESHOLD
SAMPLE_SEED = corpus.DEFAULT_SEED
SAMPLE_ROWS = corpus.DEFAULT_SAMPLE_ROWS
EMBED_CACHE = "embedding_cache.json"
MB = float(1 << 20)

#: Set-up samples on serve; setup_s is their median. They are spread over
#: the run between query rounds. On build and grow every round takes one
#: set-up sample before its measured part, so there too the samples spread
#: over the whole run as the measured ones do.
SERVE_SETUPS = 4
#: Ingests timed as one set-up sample on build. One ingest of its pool takes
#: about 40 ms, too short to repeat on a shared machine, so a sample is the
#: mean over several.
INGESTS_PER_SETUP = 10
#: Queries between two reference readings in a batch (see speed.py).
QUERIES_PER_READING = 20
#: Measured rounds run until ``--seconds`` have passed and at least this many ran.
MIN_ROUNDS = 3
#: Queries whose top-k is compared with an exhaustive numpy scan.
INDEX_SAMPLE = 40
#: Unplanted table pairs re-derived by the join oracle, per planted pair.
OTHER_PAIRS_PER_PLANTED = 3


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _embedder(out: Path | None) -> services.CachingEmbedder:
    return services.CachingEmbedder(services.HashingEmbedder(), None if out is None else out / EMBED_CACHE)


# ---------------------------------------------------------------------------
# CLI steps
# ---------------------------------------------------------------------------


def ingest(out: Path, sources: list[dict], tr):
    """``tablescout ingest --out-dir out label=path ...``"""
    with tr.span("corpus.ingest"):
        loaded = [(s["label"], corpus.load_tables(s["path"], s["kind"])) for s in sources]
        pooled = corpus.pool_corpora(loaded)
        corpus.save_corpus(pooled, out / "corpus.json")
        manifest = {
            "version": 1,
            "sources": sorted(s["label"] for s in sources),
            "tables": [
                {"id": t.id, "name": t.name, "source": pooled.provenance.get(t.id, ""),
                 "columns": len(t.columns), "rows": t.row_count}
                for t in sorted(pooled, key=lambda t: t.id)
            ],
        }
        (out / "manifest.json").write_text(
            json.dumps(manifest, sort_keys=True, ensure_ascii=False, indent=2) + "\n", encoding="utf-8"
        )
    return pooled


def enrich(out: Path, model: PlannedModel, tr):
    """``tablescout enrich --out-dir out --generator ...``"""
    pooled = corpus.load_corpus(out / "corpus.json")
    with tr.span("services.embed_cache_load"):
        embedder = _embedder(out)
    generator = services.ScriptedGenerator(reply=model)
    ledger = services.TokenLedger()
    with tr.span("indexing.store_load"):
        store = indexing.EnrichmentStore(out / "enriched.json")
    indexing.enrich_tables(
        pooled, generator, store=store, seed=SAMPLE_SEED, n_rows=SAMPLE_ROWS,
        max_tokens=indexing.PURPOSE_MAX_TOKENS, ledger=ledger,
    )
    index = indexing.DenseIndex.build(store.texts(), embedder)
    index.save(out / "index.npz")
    embedder.save()
    return store, index, generator, ledger


def build_compat(out: Path, tr):
    """``tablescout cache --out-dir out``"""
    pooled = corpus.load_corpus(out / "corpus.json")
    with tr.span("services.embed_cache_load"):
        embedder = _embedder(out)
    cache = compatibility.build_cache(pooled, embedder)
    tr.add("compatibility.edges", len(cache))
    cache.save(out / "compat_cache.json")
    embedder.save()
    return cache, pooled


def load_artifacts(out: Path, tr):
    """The loads ``retrieve``/``e2e`` make before their first query."""
    with tr.span("services.embed_cache_load"):
        embedder = _embedder(out)
    index = indexing.DenseIndex.load(out / "index.npz", embedder.backend_id)
    cache = compatibility.CompatibilityCache.load(out / "compat_cache.json", embedder.backend_id)
    with tr.span("indexing.store_load"):
        store = indexing.EnrichmentStore(out / "enriched.json")
    return index, cache, store, store.texts()


def query_batch(out: Path, gold, db: str, loaded, model: PlannedModel, tr, speed: Speed) -> dict:
    """``tablescout e2e --gold ... --db ...`` over loaded artifacts.

    Queries get a fresh in-memory embedding cache per batch, as each e2e run
    starts with query texts it has never embedded. A reference reading is
    taken every ``QUERIES_PER_READING`` queries, between two queries and
    outside every timing; each query's ``factors`` entry comes from the
    readings on either side of its group, and the batch's from all of them.
    """
    index, cache, store, texts = loaded
    model.reset()
    generator = services.ScriptedGenerator(reply=model)
    ledger = services.TokenLedger()
    pipe = pipeline.OnlinePipeline(index, cache, _embedder(None), generator, texts, k=K, tau=TAU, ledger=ledger)
    records, lines, outcomes, latencies = [], [], [], []
    readings = [speed.read()]
    spent = speed.spent
    start = time.perf_counter()
    for i, g in enumerate(gold):
        if i and i % QUERIES_PER_READING == 0:
            readings.append(speed.read())
        tr.request = g.query_id
        t0 = time.perf_counter()
        result = pipe.run_query(g.question)
        record = pipeline.result_record(g.query_id, result)
        lines.append(pipeline.record_line(record))
        tables = [(tid, store.get(tid).text) for tid in result.final if tid in store]
        sql = evaluation.generate_sql(g.question, tables, generator, ledger=ledger)
        outcomes.append((evaluation.execution_match(db, sql, g.gold_sql), len(g.gold_tables)))
        latencies.append(time.perf_counter() - t0)
        records.append(record)
        tr.add("pipeline.fallbacks", float(result.fallback_used))
        tr.add("pipeline.restored", len(result.restored))
    tr.request = None
    (out / "results.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    _, summary = evaluation.evaluate_selection(records, gold)
    execution = evaluation.stratified_execution_summary(outcomes)
    cost = evaluation.CostLedger.from_token_ledger(ledger)
    report = {
        "selection": summary,
        "execution": execution,
        "cost": {"input_tokens": cost.input_tokens, "output_tokens": cost.output_tokens,
                 "stages": {s: list(t) for s, t in ledger.stage_totals().items()},
                 "dollars": evaluation.cost_estimate(cost)},
    }
    (out / "e2e_report.json").write_text(json.dumps(report, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    elapsed = time.perf_counter() - start - (speed.spent - spent)
    readings.append(speed.read())
    groups = [speed.factor(a, b) for a, b in zip(readings, readings[1:])]
    return {
        "records": records, "latencies": latencies, "elapsed": elapsed,
        "factors": [groups[i // QUERIES_PER_READING] for i in range(len(gold))],
        "factor": speed.factor(*readings),
        "summary": summary, "exec_match": execution["em_all"],
        "calls": model.calls, "tokens": model.tokens,
        "program_calls": len(generator.calls), "program_tokens": ledger.input_tokens + ledger.output_tokens,
    }


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Run:
    """One workload run: its plan, working directory and what it found."""

    def __init__(self, workload: str, plan: dict, work: Path, seconds: float, tracer):
        self.workload = workload
        self.plan = plan
        self.work = work
        self.seconds = seconds
        self.tr = tracer
        self.model = PlannedModel(plan["queries"])
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.speed = Speed()
        #: set-up and build samples at the reference speed, and as measured
        self.setup_s: list[float] = []
        self.build_s: list[float] = []
        self.raw_setup_s: list[float] = []
        self.raw_build_s: list[float] = []
        self.round_calls: list[int] = []
        self.round_tokens: list[int] = []
        self.batches: list[dict] = []
        self.joins: dict = {}
        self.artifacts: Path | None = None
        self.peak_rss_mb = 0.0
        self.measured = 0.0
        self.gold = [
            evaluation.GoldQuery(q["query_id"], q["question"], frozenset(q["gold_tables"]), q["gold_sql"])
            for q in plan["queries"]
        ]
        self.pool = plan.get("grown", plan["base"])
        self.tail = tail_percentile(len(self.gold))

    def phase(self, name: str, rep: int) -> None:
        self.tr.phase, self.tr.rep = name, rep

    def rounds(self):
        """Round numbers until the measured time reaches ``seconds`` and the
        minimum number of rounds ran. Each timed part of a round starts after
        a full garbage collection, so no round inherits another's garbage."""
        r = 0
        while r < MIN_ROUNDS or self.measured < self.seconds:
            yield r
            r += 1

    def timed(self, *steps) -> tuple[list, list[float], list[float]]:
        """Run ``steps`` one after another, each between two reference
        readings (the reading after one step is the reading before the
        next), as the CLI runs one command after another. Returns each
        step's result, its time as measured and its time at the reference
        speed."""
        results, measured, scaled = [], [], []
        before = self.speed.read()
        for step in steps:
            t0 = time.perf_counter()
            results.append(step())
            elapsed = time.perf_counter() - t0
            after = self.speed.read()
            measured.append(elapsed)
            scaled.append(elapsed * self.speed.factor(before, after))
            before = after
        return results, measured, scaled

    def add_setup(self, measured: float, scaled: float) -> None:
        self.raw_setup_s.append(measured)
        self.setup_s.append(scaled)

    def add_build(self, measured: float, scaled: float) -> None:
        self.raw_build_s.append(measured)
        self.build_s.append(scaled)

    def check_model_use(self, program_calls: int, program_tokens: int) -> tuple[int, int]:
        """The model's own call and token counts, after checking that the
        program's generator and token ledger saw the same."""
        self.problems += checks.check_model_use(self.model.calls, self.model.tokens, program_calls, program_tokens)
        return self.model.calls, self.model.tokens

    def score_joins(self, cache, pooled, pool: dict) -> None:
        """``tablescout eval --gold-joins``: the cache against the planted joins."""
        pairs = checks.sample_pairs(pool["tables"], pool["joins"], self.plan["seed"],
                                    OTHER_PAIRS_PER_PLANTED * len(pool["joins"]))
        gold = compatibility.gold_joins_from_records(checks.gold_join_records(pool["joins"], pairs))
        scores = compatibility.evaluate_cache(cache, gold, corpus=pooled)
        if self.joins and scores != self.joins["scores"]:
            self.problems.append("cache scores against the planted joins changed between repetitions")
        self.joins = {"scores": scores, "pairs": pairs}

    def query_round(self, out: Path, r: int, loaded=None) -> dict:
        """One e2e batch; build and grow load what their round just built."""
        self.phase("query", r)
        gc.collect()
        t0 = time.perf_counter()
        if loaded is None:
            loaded = load_artifacts(out, self.tr)
        batch = query_batch(out, self.gold, self.plan["db"], loaded, self.model, self.tr, self.speed)
        self.measured += time.perf_counter() - t0
        self.check_model_use(batch["program_calls"], batch["program_tokens"])
        batch["loaded"] = loaded
        self.batches.append(batch)
        return batch

    def build_round(self, r: int, *steps) -> list:
        """Time ``steps`` (the offline build of one round) as one build_s sample."""
        self.phase("build", r)
        self.model.reset()
        gc.collect()
        results, measured, scaled = self.timed(*steps)
        self.measured += sum(measured)
        self.add_build(sum(measured), sum(scaled))
        return results

    def finish_measuring(self, out: Path) -> None:
        self.artifacts = out
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # -- verification ------------------------------------------------------

    def verify(self) -> None:
        """Check every query batch, the last cache and the last index."""
        self.phase("verify", 0)
        index, cache = self.batches[-1]["loaded"][:2]
        oracle = checks.JoinOracle(self.pool["tables"], services.HashingEmbedder().embed)
        self.problems += checks.check_cache(cache, oracle, self.joins["pairs"])
        plans = {q["query_id"]: q for q in self.plan["queries"]}
        first = self.batches[0]["records"]
        for batch in self.batches:
            self.problems += checks.check_repeat(first, batch["records"], "query batch")
            for record in batch["records"]:
                found, failed = checks.check_record(record, plans[record["query_id"]], cache.score, TAU, K)
                self.problems += found
                self.failed += failed
            self.attempted += len(batch["records"])
            self.problems += checks.check_quality(batch["records"], self.plan["queries"],
                                                  batch["summary"], batch["exec_match"])
        rng = random.Random(f"index:{self.plan['seed']}")
        embed = services.HashingEmbedder().embed
        by_id = {r["query_id"]: r for r in first}
        for q in rng.sample(self.plan["queries"], min(INDEX_SAMPLE, len(self.plan["queries"]))):
            self.problems += checks.check_topk(index.ids, index.vectors, embed(q["question"]), K,
                                               by_id[q["query_id"]]["topk"], q["query_id"])


def run_build(b: Run) -> None:
    """Each round ingests the pool into a fresh directory (set-up), then
    enriches, indexes and caches it cold and answers the query batch over
    it. The batch is outside build_s; it is there because every workload
    reports the query metrics."""
    tr = b.tr
    first_bytes = None
    for r in b.rounds():
        out = _fresh(b.work / f"round{r % 2}")

        def ingest_step(i: int):
            def step():
                b.phase("setup", r * INGESTS_PER_SETUP + i)
                pooled = ingest(out, b.plan["sources"], tr)
                # keep one corpus, not ten, so peak RSS stays the program's
                return pooled if i == INGESTS_PER_SETUP - 1 else None
            return step

        gc.collect()
        ingested, measured, scaled = b.timed(*(ingest_step(i) for i in range(INGESTS_PER_SETUP)))
        b.add_setup(sum(measured) / INGESTS_PER_SETUP, sum(scaled) / INGESTS_PER_SETUP)
        if r == 0:
            b.problems += checks.check_corpus(ingested[-1], b.pool["tables"])

        (_, _, generator, ledger), (cache, pooled) = b.build_round(
            r, lambda: enrich(out, b.model, tr), lambda: build_compat(out, tr))
        calls, tokens = b.check_model_use(len(generator.calls), ledger.input_tokens + ledger.output_tokens)
        b.attempted += len(pooled)
        b.score_joins(cache, pooled, b.pool)
        produced = [(out / n).read_bytes() for n in ("enriched.json", "compat_cache.json")]
        if first_bytes is not None:
            b.problems += checks.check_repeat(first_bytes, produced, "cold build")
        first_bytes = produced
        b.query_round(out, r)
        b.round_calls.append(calls)
        b.round_tokens.append(tokens)
    b.finish_measuring(out)
    b.verify()


def run_serve(b: Run) -> None:
    """Set-up builds and loads a large pool; each round is one query batch
    over the last pool built. The set-ups are spread over the run: the next
    one runs once the measured time has passed its share of ``seconds``, so
    set-up and query samples both span the whole run."""
    tr = b.tr

    def setup(r: int):
        b.phase("setup", r)
        out = _fresh(b.work / f"setup{r % 2}")
        gc.collect()
        (_, _, (cache, pooled), loaded), measured, scaled = b.timed(
            lambda: ingest(out, b.plan["sources"], tr),
            lambda: enrich(out, b.model, tr),
            lambda: build_compat(out, tr),
            lambda: load_artifacts(out, tr),
        )
        b.add_setup(sum(measured), sum(scaled))
        b.add_build(sum(measured[1:3]), sum(scaled[1:3]))
        b.score_joins(cache, pooled, b.pool)
        if r == 0:
            b.problems += checks.check_corpus(pooled, b.pool["tables"])
        return out, loaded

    out, loaded = setup(0)
    for r in b.rounds():
        if len(b.setup_s) < SERVE_SETUPS and b.measured >= b.seconds * len(b.setup_s) / SERVE_SETUPS:
            out, loaded = setup(len(b.setup_s))
        batch = b.query_round(out, r, loaded)
        b.round_calls.append(batch["calls"])
        b.round_tokens.append(batch["tokens"])
    b.finish_measuring(out)
    b.verify()


def run_grow(b: Run) -> None:
    """Each round builds the base pool cold in a fresh directory (set-up),
    then adds the new source and re-runs ingest, enrich and cache over it,
    reusing its store and embedding cache, and answers the query batch over
    the grown pool."""
    tr = b.tr
    sources = b.plan["sources"]
    grown = b.plan["grown"]
    for r in b.rounds():
        out = _fresh(b.work / f"round{r % 2}")
        b.phase("setup", r)
        gc.collect()
        (pooled, _, _), measured, scaled = b.timed(
            lambda: ingest(out, sources, tr),
            lambda: enrich(out, b.model, tr),
            lambda: build_compat(out, tr),
        )
        b.add_setup(sum(measured), sum(scaled))
        if r == 0:
            b.problems += checks.check_corpus(pooled, b.plan["base"]["tables"])

        _, (store, index, generator, ledger), (cache, pooled) = b.build_round(
            r,
            lambda: ingest(out, sources + [b.plan["new_source"]], tr),
            lambda: enrich(out, b.model, tr),
            lambda: build_compat(out, tr),
        )
        calls, tokens = b.check_model_use(len(generator.calls), ledger.input_tokens + ledger.output_tokens)
        if r == 0:
            b.problems += checks.check_corpus(pooled, grown["tables"])
        problems, failed = checks.check_grow(store.texts(), index.ids, grown["tables"], b.model.purpose_calls,
                                             b.plan["new_ids"], b.plan["stale_ids"])
        b.problems += problems
        b.attempted += len(grown["tables"])
        b.failed += len(failed)
        b.score_joins(cache, pooled, grown)
        b.query_round(out, r)
        b.round_calls.append(calls)
        b.round_tokens.append(tokens)
    b.finish_measuring(out)
    b.verify()


WORKLOADS = {"build": run_build, "serve": run_serve, "grow": run_grow}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def tail_percentile(samples: int) -> float:
    """The highest of a few percentiles with at least ten samples beyond it."""
    for p in (99.9, 99.0, 98.0, 97.5, 95.0, 90.0):
        if samples * (100.0 - p) / 100.0 >= 10:
            return p
    return 50.0


def per_query_ms(batches: list[dict], scaled: bool = True) -> np.ndarray:
    """Each query's median latency over the run's rounds, in milliseconds,
    at the reference speed unless ``scaled`` is false. A stall of the shared
    machine lasts a fraction of a second and lands in one round of the
    queries it hits, so the median over rounds drops it while a query that
    is slow every round stays slow."""
    latencies = np.array([batch["latencies"] for batch in batches])
    if scaled:
        latencies = latencies * np.array([batch["factors"] for batch in batches])
    return np.median(latencies, axis=0) * 1e3


def percentile_ms(seconds: list[float], p: float) -> float:
    return float(np.percentile(seconds, p)) * 1e3


def artifact_bytes(out: Path) -> dict[str, int]:
    return {p.name: p.stat().st_size for p in out.iterdir() if p.is_file()}


def queries_per_s(batches: list[dict], scaled: bool = True) -> float:
    """Queries answered per second of query batch, over all the run's batches."""
    seconds = sum(x["elapsed"] * (x["factor"] if scaled else 1.0) for x in batches)
    return sum(len(x["latencies"]) for x in batches) / seconds


def as_measured(b: Run) -> dict[str, float]:
    """The timing metrics from the times as measured, before scaling, and
    the reference loop's median reading; printed for people, not reported."""
    queries = per_query_ms(b.batches, scaled=False)
    return {
        "setup_s": statistics.median(b.raw_setup_s),
        "build_s": statistics.median(b.raw_build_s),
        "queries_per_s": queries_per_s(b.batches, scaled=False),
        "query_p50_ms": float(np.percentile(queries, 50)),
        "query_tail_ms": float(np.percentile(queries, b.tail)),
        "reference_ms": statistics.median(b.speed.readings),
    }


def end_to_end(b: Run) -> dict[str, tuple[float, str]]:
    queries = per_query_ms(b.batches)
    first = b.batches[0]
    return {
        "setup_s": (statistics.median(b.setup_s), "s"),
        "build_s": (statistics.median(b.build_s), "s"),
        "queries_per_s": (queries_per_s(b.batches), "1/s"),
        "query_p50_ms": (float(np.percentile(queries, 50)), "ms"),
        "query_tail_ms": (float(np.percentile(queries, b.tail)), "ms"),
        "peak_rss_mb": (b.peak_rss_mb, "MB"),
        "artifact_mb": (sum(artifact_bytes(b.artifacts).values()) / MB, "MB"),
        "model_calls": (statistics.median(b.round_calls), "count"),
        "model_tokens": (statistics.median(b.round_tokens), "count"),
        "selection_f1": (first["summary"]["f1"], "%"),
        "perfect_recall": (first["summary"]["perfect_recall"], "%"),
        "exec_match": (first["exec_match"], "%"),
        "join_accuracy": (100.0 * b.joins["scores"]["joinability_accuracy"], "%"),
        "join_column_accuracy": (100.0 * b.joins["scores"]["column_accuracy"], "%"),
    }


def per_layer(b: Run, e2e: dict[str, tuple[float, str]]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the traced run; see README for which
    end-to-end metric each should move."""
    tr = b.tr
    build = ("setup",) if b.workload == "serve" else ("build",)
    query = ("query",)
    setup = ("setup", "build", "query")
    sizes = artifact_bytes(b.artifacts)

    def total(name, phases):
        return statistics.median(tr.per_rep(name, phases))

    def pct(name, p):
        return percentile_ms(tr.durations(name, query), p)

    def mb(*names):
        return sum(sizes.get(n, 0) for n in names) / MB

    return {
        "compatibility.build_cache_s": (total("compatibility.build_cache", build), "s"),
        "compatibility.table_pairs_scored": (total("compatibility.table_pairs_calls", build), "count"),
        "compatibility.edges": (total("compatibility.edges", build), "count"),
        "compatibility.evaluate_s": (total("compatibility.evaluate", build), "s"),
        "compatibility.cache_save_s": (total("compatibility.cache_save", setup), "s"),
        "compatibility.cache_load_s": (total("compatibility.cache_load", setup), "s"),
        "compatibility.cache_mb": (mb("compat_cache.json"), "MB"),
        "indexing.search_p50_ms": (pct("indexing.search", 50), "ms"),
        "indexing.search_tail_ms": (pct("indexing.search", b.tail), "ms"),
        "indexing.enrich_s": (total("indexing.enrich", build), "s"),
        "indexing.purpose_calls": (total("indexing.purpose_calls", build), "count"),
        "indexing.store_saves": (total("indexing.store_saves", build), "count"),
        "indexing.store_written_mb": (total("indexing.store_written_bytes", build) / MB, "MB"),
        "indexing.store_save_s": (total("indexing.store_save", build), "s"),
        "indexing.store_load_s": (total("indexing.store_load", setup), "s"),
        "indexing.index_build_s": (total("indexing.index_build", build), "s"),
        "indexing.index_save_s": (total("indexing.index_save", setup), "s"),
        "indexing.index_load_s": (total("indexing.index_load", setup), "s"),
        "indexing.index_mb": (mb("index.npz"), "MB"),
        "indexing.store_mb": (mb("enriched.json"), "MB"),
        "services.embed_calls": (total("services.embed_calls", build), "count"),
        "services.embed_hits": (total("services.embed_hits", build), "count"),
        "services.embed_s": (total("services.embed_s", build), "s"),
        "services.embed_cache_load_s": (total("services.embed_cache_load", setup), "s"),
        "services.embed_cache_save_s": (total("services.embed_cache_save", setup), "s"),
        "services.embed_cache_mb": (mb(EMBED_CACHE), "MB"),
        "services.generate_s": (total("services.generate_s", query), "s"),
        "corpus.ingest_s": (total("corpus.ingest", setup), "s"),
        "corpus.load_s": (total("corpus.load", setup), "s"),
        "corpus.save_s": (total("corpus.save", setup), "s"),
        "corpus.corpus_mb": (mb("corpus.json", "manifest.json"), "MB"),
        "pipeline.query_p50_ms": (pct("pipeline.query", 50), "ms"),
        "pipeline.retrieve_p50_ms": (pct("pipeline.retrieve", 50), "ms"),
        "pipeline.prompt_p50_ms": (pct("pipeline.prompt", 50), "ms"),
        "pipeline.parse_p50_ms": (pct("pipeline.parse", 50), "ms"),
        "pipeline.adjust_p50_ms": (pct("pipeline.adjust", 50), "ms"),
        "pipeline.prompt_chars": (total("pipeline.prompt_chars", query) / total("pipeline.prompts", query), "count"),
        "pipeline.fallbacks": (total("pipeline.fallbacks", query), "count"),
        "pipeline.restored": (total("pipeline.restored", query), "count"),
        "evaluation.generate_sql_p50_ms": (pct("evaluation.generate_sql", 50), "ms"),
        "evaluation.execute_p50_ms": (pct("evaluation.execute", 50), "ms"),
        "trace.setup_s": e2e["setup_s"],
        "trace.build_s": e2e["build_s"],
        "trace.query_p50_ms": e2e["query_p50_ms"],
    }
