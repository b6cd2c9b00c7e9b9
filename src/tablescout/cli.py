"""Command-line front end: batch commands over a pooled table corpus.

Commands: ingest, enrich, cache, retrieve, eval, e2e. Each reads and writes
artifacts in an output directory (corpus.json, enriched.json, index.npz,
embedding_cache.npz, compat_cache.json, results.jsonl, report files) so runs
are resumable and byte-reproducible with the offline stub backends.

Each vector is stored once: ``index.npz`` (:data:`services.INDEX_FILE`)
records the text key of each row, and the embedding cache reads it as a
source, so its segments hold only what the index does not: the column
headers ``cache`` embeds, and the texts of tables a re-ingest dropped. A
text key that two of those files hold must hold one vector in both.
``services.CachingEmbedder`` and the README's "Artifacts" section say how
the segments are written and what a killed command leaves.

Exit codes: 0 success, 2 configuration problem, 3 input problem, 4 backend
failure.
"""

from __future__ import annotations

import argparse
import logging
import math
import sys
from pathlib import Path

from .artifacts import header, read_json, write_lines, write_report
from .compatibility import (
    CompatibilityCache,
    build_cache,
    evaluate_cache,
    gold_joins_from_records,
)
from .corpus import (
    load_corpus,
    load_tables,
    pool_corpora,
    save_corpus,
)
from .errors import BackendError, ConfigError, CorpusError
from .evaluation import (
    INPUT_RATE_PER_MILLION,
    OUTPUT_RATE_PER_MILLION,
    CostLedger,
    ExecutionOutcome,
    check_database,
    cost_estimate,
    evaluate_selection,
    execution_match,
    generate_sql,
    load_gold_queries,
    load_result_records,
    query_lines,
    render_execution_table,
    render_metrics_table,
    stratified_execution_summary,
)
from .indexing import DenseIndex, EnrichmentStore, enrich_tables
from .pipeline import (
    DEFAULT_RESTORE_THRESHOLD,
    DEFAULT_TOP_K,
    OnlinePipeline,
    record_line,
    result_record,
)
from .services import (
    CachingEmbedder,
    Embedder,
    Generator,
    HashingEmbedder,
    HttpEmbeddingClient,
    HttpGenerationClient,
    INDEX_FILE,
    ScriptedGenerator,
    TokenLedger,
)

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INPUT = 3
EXIT_BACKEND = 4


# ---------------------------------------------------------------------------
# Backend specs
# ---------------------------------------------------------------------------


def _http_spec(spec: str, kind: str) -> tuple[str, str]:
    """The ``(base_url, model)`` of an ``http:<base_url>,<model>`` spec."""
    url, sep, model = spec[len("http:") :].rpartition(",")
    if not sep or not url or not model:
        raise ConfigError(f"http {kind} spec must be http:<base_url>,<model>: {spec!r}")
    return url, model


def parse_embedder_spec(spec: str) -> Embedder:
    """stub | stub:<dim> | http:<base_url>,<model>"""
    if spec == "stub":
        return HashingEmbedder()
    if spec.startswith("stub:"):
        try:
            return HashingEmbedder(dimension=int(spec.split(":", 1)[1]))
        except ValueError as exc:
            raise ConfigError(f"bad stub embedder spec {spec!r}: {exc}") from exc
    if spec.startswith("http:"):
        return HttpEmbeddingClient(*_http_spec(spec, "embedder"))
    raise ConfigError(f"unknown embedder spec {spec!r}")


def parse_generator_spec(spec: str) -> Generator:
    """scripted:<responses.json> | http:<base_url>,<model>"""
    if spec.startswith("scripted:"):
        path = spec[len("scripted:") :]
        responses = read_json(path, "scripted responses", ConfigError)
        if not isinstance(responses, list):
            raise ConfigError(f"scripted responses {path} must be a JSON list")
        bad = next((i for i, item in enumerate(responses) if not isinstance(item, str)), None)
        if bad is not None:
            raise ConfigError(f"scripted responses {path}: item {bad} is not a string: {responses[bad]!r}")
        return ScriptedGenerator(responses=responses)
    if spec.startswith("http:"):
        return HttpGenerationClient(*_http_spec(spec, "generator"))
    raise ConfigError(f"unknown generator spec {spec!r}")


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _require_artifact(path: Path, hint: str) -> Path:
    if not path.exists():
        raise CorpusError(f"missing {path.name} in {path.parent} (run `{hint}` first)")
    return path


def _embedder_with_cache(spec: str, out: Path) -> CachingEmbedder:
    return CachingEmbedder(parse_embedder_spec(spec), out / "embedding_cache.npz")


def _generator(args: argparse.Namespace, missing: str) -> Generator:
    """The ``--generator`` backend; a :class:`ConfigError` saying ``missing`` without one."""
    if args.generator is None:
        raise ConfigError(missing)
    return parse_generator_spec(args.generator)


def _check_query_flags(args: argparse.Namespace) -> None:
    """Refuse a ``--k`` or ``--tau`` out of range before anything is read."""
    if args.k < 1:
        raise ConfigError(f"k must be at least 1, got {args.k}")
    if not 0.0 <= args.tau <= 1.0:
        raise ConfigError(f"tau must lie in [0, 1], got {args.tau}")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_ingest(args: argparse.Namespace) -> int:
    out = _out_dir(args)
    sources = []
    seen_labels = set()
    for item in args.sources:
        label, sep, path = item.partition("=")
        if not sep:
            label, path = Path(item).stem, item
        if not label.strip():
            raise ConfigError(f"source {item!r}: source label {label!r} is blank (give one as label=path)")
        if label in seen_labels:
            raise ConfigError(f"duplicate source label {label!r}")
        try:
            label.encode("utf-8")  # a name that is not UTF-8 decodes to lone surrogates
        except UnicodeEncodeError:
            raise CorpusError(f"source {item!r}: label {label!r} is not UTF-8 text") from None
        seen_labels.add(label)
        source = Path(path)
        sources.append((label, load_tables(source, "csv-dir" if source.is_dir() else "sqlite-file")))
    corpus = pool_corpora(sources)
    save_corpus(corpus, out / "corpus.json")
    manifest = {
        **header(),
        "sources": sorted(seen_labels),
        "tables": [
            {
                "id": t.id,
                "name": t.name,
                "source": corpus.provenance.get(t.id, ""),
                "columns": len(t.columns),
                "rows": t.row_count,
            }
            for t in sorted(corpus, key=lambda t: t.id)
        ],
    }
    write_report(out / "manifest.json", manifest)
    logger.info("pooled %d tables from %d sources into %s", len(corpus), len(sources), out)
    print(f"ingested {len(corpus)} tables -> {out / 'corpus.json'}")
    return EXIT_OK


def cmd_enrich(args: argparse.Namespace) -> int:
    out = _out_dir(args)
    corpus = load_corpus(_require_artifact(out / "corpus.json", "ingest"))
    embedder = _embedder_with_cache(args.embedder, out)
    generator = _generator(args, "enrich needs --generator (purpose generation)")
    ledger = TokenLedger()
    store = EnrichmentStore(out / "enriched.json")
    already = len(store)
    enrich_tables(corpus, generator, store=store, ledger=ledger)
    # the store keeps tables dropped from the corpus, so a table added back
    # costs no call; the index holds only the corpus's tables
    index = DenseIndex.build({t.id: store.get(t.id).text for t in corpus}, embedder)
    index.save(out / INDEX_FILE)
    embedder.save()
    tokens = ledger.stage_totals().get("purpose", (0, 0))
    logger.info(
        "enriched %d tables (%d already cached), purpose tokens in/out = %d/%d",
        len(store) - already, already, tokens[0], tokens[1],
    )
    print(f"enriched {len(index)} tables -> {out / INDEX_FILE}")
    return EXIT_OK


def cmd_cache(args: argparse.Namespace) -> int:
    out = _out_dir(args)
    corpus = load_corpus(_require_artifact(out / "corpus.json", "ingest"))
    embedder = _embedder_with_cache(args.embedder, out)
    cache = build_cache(corpus, embedder)
    cache.save(out / "compat_cache.json")
    embedder.save()
    logger.info("cached %d compatible pairs", len(cache))
    print(f"cached {len(cache)} table pairs -> {out / 'compat_cache.json'}")
    return EXIT_OK


def _build_pipeline(
    args: argparse.Namespace, out: Path, generator: Generator | None
) -> tuple[OnlinePipeline, EnrichmentStore, TokenLedger]:
    """The pipeline over the built artifacts; it gets no generator, and so
    answers with the dense top-k, under ``--fallback-only``. An indexed
    table that the enrichment store holds no text for is a :class:`CorpusError`."""
    # only the query is embedded, so the embedding cache is neither read nor written
    embedder = parse_embedder_spec(args.embedder)
    index = DenseIndex.load(_require_artifact(out / INDEX_FILE, "enrich"), embedder.backend_id)
    cache = CompatibilityCache.load(_require_artifact(out / "compat_cache.json", "cache"), embedder.backend_id)
    store = EnrichmentStore(_require_artifact(out / "enriched.json", "enrich"))
    unstored = next((tid for tid in index.ids if tid not in store), None)
    if unstored is not None:
        raise CorpusError(
            f"{out / 'enriched.json'} holds no text for indexed table {unstored!r} (run `enrich` again)"
        )
    ledger = TokenLedger()
    pipeline = OnlinePipeline(
        index,
        cache,
        embedder,
        None if args.fallback_only else generator,
        store.texts(),
        k=args.k,
        tau=args.tau,
        ledger=ledger,
    )
    return pipeline, store, ledger


def cmd_retrieve(args: argparse.Namespace) -> int:
    _check_query_flags(args)
    out = _out_dir(args)
    generator = None
    if not args.fallback_only:
        generator = _generator(args, "a generator is required unless --fallback-only is set")
    pipeline, _, ledger = _build_pipeline(args, out, generator)
    queries = [record for _, record in query_lines(args.queries, "queries file")]
    lines = [record_line(result_record(q["query_id"], pipeline.run_query(q["question"]))) for q in queries]
    write_lines(out / "results.jsonl", lines)
    logger.info(
        "retrieved %d queries, selection tokens in/out = %d/%d",
        len(queries), ledger.input_tokens, ledger.output_tokens,
    )
    print(f"wrote {len(queries)} records -> {out / 'results.jsonl'}")
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    out = _out_dir(args)
    did_something = False
    if args.gold is not None:
        results_path = args.results or (out / "results.jsonl")
        records = load_result_records(_require_artifact(Path(results_path), "retrieve"))
        gold = load_gold_queries(args.gold)
        per_query, summary = evaluate_selection(records, gold)
        report = {
            "summary": summary,
            "per_query": [
                {
                    "query_id": r.query_id,
                    "precision": r.precision,
                    "recall": r.recall,
                    "f1": r.f1,
                    "perfect_recall": r.perfect_recall,
                }
                for r in per_query
            ],
        }
        write_report(out / "eval_report.json", report)
        print(render_metrics_table(summary))
        did_something = True
    if args.gold_joins is not None:
        cache = CompatibilityCache.load(_require_artifact(out / "compat_cache.json", "cache"))
        raw = read_json(args.gold_joins, "gold joins")
        corpus = load_corpus(_require_artifact(out / "corpus.json", "ingest"))
        metrics = evaluate_cache(cache, gold_joins_from_records(raw, args.gold_joins), corpus)
        write_report(out / "compat_report.json", metrics)
        print(
            f"joinability_accuracy: {100 * metrics['joinability_accuracy']:.1f}\n"
            f"column_accuracy: {100 * metrics['column_accuracy']:.1f}\n"
            f"avg_score_error: {metrics['avg_score_error']:.3f}"
        )
        did_something = True
    if not did_something:
        raise ConfigError("eval needs --gold and/or --gold-joins")
    return EXIT_OK


def cmd_e2e(args: argparse.Namespace) -> int:
    _check_query_flags(args)
    # a rate that is not finite would write NaN or Infinity, which is not
    # JSON, into the report, and a negative one negative dollars
    for name, rate in (("input rate", args.input_rate), ("output rate", args.output_rate)):
        if not (math.isfinite(rate) and rate >= 0):
            raise ConfigError(f"{name} must be a finite number of at least 0, got {rate}")
    out = _out_dir(args)
    sql_generator = _generator(args, "e2e needs a generator (it writes SQL)")
    gold = load_gold_queries(args.gold)
    check_database(args.db)
    pipeline, store, ledger = _build_pipeline(args, out, sql_generator)
    records = []
    em_results = []
    for g in gold:
        result = pipeline.run_query(g.question)
        records.append(result_record(g.query_id, result))
        if g.gold_sql:
            tables = [(tid, store.get(tid).text) for tid in result.final]
            try:
                pred_sql = generate_sql(g.question, tables, sql_generator, ledger=ledger)
            except BackendError as exc:
                # a query without SQL counts as wrong; the batch goes on
                outcome = ExecutionOutcome("gen_error", str(exc))
            else:
                outcome = execution_match(args.db, pred_sql, g.gold_sql)
            em_results.append((outcome, len(g.gold_tables)))
    write_lines(out / "results.jsonl", [record_line(record) for record in records])
    report: dict = {}
    if any(g.gold_tables for g in gold):
        _, summary = evaluate_selection(records, gold)
        report["selection"] = summary
        print(render_metrics_table(summary))
    if em_results:
        em_summary = stratified_execution_summary(em_results)
        report["execution"] = em_summary
        print(render_execution_table(em_summary))
    cost = CostLedger.from_token_ledger(ledger, args.input_rate, args.output_rate)
    report["cost"] = {
        "input_tokens": cost.input_tokens,
        "output_tokens": cost.output_tokens,
        "stages": {s: list(t) for s, t in ledger.stage_totals().items()},
        "dollars": cost_estimate(cost),
    }
    write_report(out / "e2e_report.json", report)
    print(f"estimated cost: ${cost_estimate(cost):.2f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tablescout",
        description="Join-aware multi-table retrieval over a pooled corpus.",
    )
    parser.add_argument("--log-level", default="WARNING", type=str.upper, choices=["DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL"], help="stderr log level (default %(default)s)")
    sub = parser.add_subparsers(dest="command", required=True)

    # each command takes only the flags it reads
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out-dir", required=True, help="artifact directory")
    embedding = argparse.ArgumentParser(add_help=False, parents=[common])
    embedding.add_argument("--embedder", default="stub", help="stub | stub:<dim> | http:<base_url>,<model> (default %(default)s)")
    generating = argparse.ArgumentParser(add_help=False, parents=[embedding])
    generating.add_argument("--generator", help="scripted:<responses.json> | http:<base_url>,<model>")

    p = sub.add_parser("ingest", parents=[common], help="pool table sources into one corpus")
    p.add_argument("sources", nargs="+", help="source path or label=path")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("enrich", parents=[generating], help="generate purposes and build the dense index")
    p.set_defaults(func=cmd_enrich)

    p = sub.add_parser("cache", parents=[embedding], help="build the pairwise compatibility cache")
    p.set_defaults(func=cmd_cache)

    querying = argparse.ArgumentParser(add_help=False)
    querying.add_argument("--k", type=int, default=DEFAULT_TOP_K, help="candidates per query (default %(default)s)")
    querying.add_argument("--tau", type=float, default=DEFAULT_RESTORE_THRESHOLD, help="restoration threshold (default %(default)s)")
    querying.add_argument("--fallback-only", action="store_true", help="skip selection; answer with the dense top-k")

    p = sub.add_parser("retrieve", parents=[generating, querying], help="answer a batch of queries")
    p.add_argument("--queries", required=True, help="JSON lines {query_id, question}")
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("eval", parents=[common], help="score results and/or the compatibility cache")
    p.add_argument("--results", help="results file (default <out-dir>/results.jsonl)")
    p.add_argument("--gold", help="gold JSON lines {query_id, question, gold_tables, gold_sql?}")
    p.add_argument("--gold-joins", dest="gold_joins", help="gold join annotations (JSON list)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("e2e", parents=[generating, querying], help="retrieve, write SQL, and check execution")
    p.add_argument("--gold", required=True, help="gold JSON lines with gold_sql")
    p.add_argument("--db", required=True, help="SQLite database file")
    p.add_argument("--input-rate", type=float, default=INPUT_RATE_PER_MILLION, help="$ per 1M input tokens (default %(default)s)")
    p.add_argument("--output-rate", type=float, default=OUTPUT_RATE_PER_MILLION, help="$ per 1M output tokens (default %(default)s)")
    p.set_defaults(func=cmd_e2e)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=args.log_level,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (CorpusError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BackendError as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return EXIT_BACKEND


if __name__ == "__main__":
    raise SystemExit(main())
