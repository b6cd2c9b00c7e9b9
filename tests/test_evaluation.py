"""Tests for selection metrics, execution match, and cost and token accounting."""

import json
import os
import sqlite3
import threading

import pytest

from tablescout import (
    BackendError,
    CompatibilityCache,
    CorpusError,
    CostLedger,
    DenseIndex,
    ExecutionOutcome,
    HashingEmbedder,
    OnlinePipeline,
    ScriptedGenerator,
    Table,
    TokenLedger,
    aggregate_metrics,
    cost_estimate,
    enrich_tables,
    execution_match,
    generate_sql,
    render_execution_table,
    render_metrics_table,
    selection_metrics,
    stratified_execution_summary,
)
from tablescout.evaluation import (
    EXECUTION_TIMEOUT_SECONDS,
    INPUT_RATE_PER_MILLION,
    OUTPUT_RATE_PER_MILLION,
    SQL_STAGE,
    EvalRecord,
    GoldQuery,
    evaluate_selection,
    load_gold_queries,
    load_result_records,
)
from tablescout.indexing import EnrichmentStore


# ---------------------------------------------------------------------------
# Per-query metrics
# ---------------------------------------------------------------------------


class TestSelectionMetrics:
    def test_partial_precision_full_recall(self):
        r = selection_metrics({"A", "B", "C"}, {"A", "B"})
        assert r.precision == pytest.approx(2 / 3)
        assert r.recall == 1.0
        assert r.f1 == pytest.approx(0.8)
        assert r.perfect_recall == 1

    def test_exact_match(self):
        r = selection_metrics({"A", "B"}, {"B", "A"})
        assert (r.precision, r.recall, r.f1, r.perfect_recall) == (1.0, 1.0, 1.0, 1)

    def test_empty_prediction(self):
        r = selection_metrics([], {"A"})
        assert (r.precision, r.recall, r.f1, r.perfect_recall) == (0.0, 0.0, 0.0, 0)

    def test_disjoint_sets(self):
        r = selection_metrics({"X"}, {"A"})
        assert (r.precision, r.recall, r.f1, r.perfect_recall) == (0.0, 0.0, 0.0, 0)

    def test_missing_gold_table(self):
        r = selection_metrics({"A"}, {"A", "B"})
        assert r.precision == 1.0
        assert r.recall == 0.5
        assert r.f1 == pytest.approx(2 / 3)
        assert r.perfect_recall == 0

    def test_duplicates_collapse(self):
        r = selection_metrics(["A", "A", "B"], ["B", "A", "A"])
        assert (r.precision, r.recall) == (1.0, 1.0)

    def test_empty_gold_rejected(self):
        with pytest.raises(ValueError):
            selection_metrics({"A"}, [])


def make_record(query_id, precision, recall, f1, perfect_recall, n_pred):
    return EvalRecord(
        query_id=query_id,
        gold=frozenset({"g"}),
        predicted=frozenset(f"p{i}" for i in range(n_pred)),
        precision=precision,
        recall=recall,
        f1=f1,
        perfect_recall=perfect_recall,
    )


class TestAggregateMetrics:
    def test_macro_average_on_percent_scale(self):
        records = [
            make_record("q1", 0.9, 0.7, 0.8, 1, 3),
            make_record("q2", 0.5, 0.3, 0.6, 0, 5),
        ]
        summary = aggregate_metrics(records)
        assert summary["queries"] == 2.0
        assert summary["avg_tables"] == 4.0
        assert summary["precision"] == pytest.approx(70.0)
        assert summary["recall"] == pytest.approx(50.0)
        assert summary["f1"] == pytest.approx(70.0)
        assert summary["perfect_recall"] == pytest.approx(50.0)

    def test_single_record(self):
        summary = aggregate_metrics([make_record("q", 1.0, 1.0, 1.0, 1, 2)])
        assert summary["f1"] == 100.0
        assert summary["avg_tables"] == 2.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_metrics([])


class TestRenderMetricsTable:
    def test_layout_and_rounding(self):
        summary = {
            "avg_tables": 4.04,
            "precision": 97.333,
            "recall": 84.51,
            "f1": 88.96,
            "perfect_recall": 72.449,
        }
        assert render_metrics_table(summary) == (
            "| Avg #tab. | P | R | F1 | PR |\n"
            "|----------:|--:|--:|---:|---:|\n"
            "| 4.0 | 97.3 | 84.5 | 89.0 | 72.4 |"
        )

    def test_round_trip_from_aggregate(self):
        records = [make_record("q", 1.0, 0.5, 2 / 3, 0, 4)]
        table = render_metrics_table(aggregate_metrics(records))
        assert table.splitlines()[2] == "| 4.0 | 100.0 | 50.0 | 66.7 | 0.0 |"


# ---------------------------------------------------------------------------
# Gold files and result records
# ---------------------------------------------------------------------------


class TestLoading:
    def test_load_gold_queries(self, tmp_path):
        path = tmp_path / "gold.jsonl"
        path.write_text(
            json.dumps(
                {
                    "query_id": "q1",
                    "question": "how many?",
                    "gold_tables": ["a", "b"],
                    "gold_sql": "SELECT 1",
                }
            )
            + "\n\n"
            + json.dumps({"query_id": "q2", "question": "which?", "gold_tables": ["c"]})
            + "\n"
        )
        gold = load_gold_queries(path)
        assert gold[0] == GoldQuery("q1", "how many?", frozenset({"a", "b"}), "SELECT 1")
        assert gold[1].gold_sql is None
        assert len(gold) == 2

    def test_gold_errors_carry_line_numbers(self, tmp_path):
        path = tmp_path / "gold.jsonl"
        path.write_text('{"query_id": "q1", "question": "which?", "gold_tables": ["a"]}\n{broken\n')
        with pytest.raises(CorpusError, match=r":2"):
            load_gold_queries(path)
        path.write_text('{"question": "no id"}\n')
        with pytest.raises(CorpusError):
            load_gold_queries(path)
        path.write_text('{"query_id": "q1", "question": "which?", "gold_tables": ["a"]}\n["q2"]\n')
        with pytest.raises(CorpusError, match=r":2: expected a JSON object"):
            load_gold_queries(path)
        with pytest.raises(CorpusError):
            load_gold_queries(tmp_path / "absent.jsonl")

    def test_line_breaks_other_than_newline_stay_in_their_line(self, tmp_path):
        # JSON leaves U+0085, U+2028 and U+2029 raw, so only "\n" ends a line
        path = tmp_path / "gold.jsonl"
        record = {"query_id": "q\x851", "question": "how\u2028many?", "gold_tables": ["a\u2029b"]}
        path.write_text(json.dumps(record, ensure_ascii=False) + "\n", encoding="utf-8")
        assert load_gold_queries(path) == [GoldQuery("q\x851", "how\u2028many?", frozenset({"a\u2029b"}))]
        result = {"query_id": "q\u2028", "final": ["a\x85"]}
        path.write_text(json.dumps(result, ensure_ascii=False) + "\n", encoding="utf-8")
        assert load_result_records(path) == [result]

    def test_crlf_endings_and_blank_lines_load(self, tmp_path):
        path = tmp_path / "gold.jsonl"
        path.write_bytes(
            b'{"query_id": "q1", "question": "how many?", "gold_tables": ["a"]}\r\n'
            b"\r\n \t\r\n"
            b'{"query_id": "q2", "question": "which?", "gold_tables": []}\r\n'
        )
        assert [g.query_id for g in load_gold_queries(path)] == ["q1", "q2"]
        path.write_bytes(b'{"query_id": "q1", "final": ["a"]}\r\n\r\n{"bro\r\n')
        with pytest.raises(CorpusError, match=r":3: invalid JSON"):
            load_result_records(path)

    def test_load_result_records(self, tmp_path):
        path = tmp_path / "results.jsonl"
        path.write_text(
            '{"query_id": "q1", "final": ["a"], "fallback_used": false}\n'
            '{"query_id": "q2", "final": []}\n'
        )
        records = load_result_records(path)
        assert [r["query_id"] for r in records] == ["q1", "q2"]
        path.write_text('{"query_id": "q1"}\n')
        with pytest.raises(CorpusError):
            load_result_records(path)


class TestEvaluateSelection:
    def test_matches_by_query_id(self):
        records = [
            {"query_id": "q2", "final": ["c", "d"]},
            {"query_id": "q1", "final": ["a", "b", "x"]},
        ]
        gold = [
            GoldQuery("q1", "", frozenset({"a", "b"})),
            GoldQuery("q2", "", frozenset({"c"})),
        ]
        evaluated, summary = evaluate_selection(records, gold)
        assert [e.query_id for e in evaluated] == ["q2", "q1"]
        assert evaluated[0].precision == 0.5
        assert evaluated[1].recall == 1.0
        assert summary["queries"] == 2.0

    def test_record_without_gold_fails(self):
        with pytest.raises(CorpusError):
            evaluate_selection(
                [{"query_id": "zz", "final": []}],
                [GoldQuery("q1", "", frozenset({"a"}))],
            )

    def test_gold_query_without_record_fails(self):
        gold = [
            GoldQuery("q1", "", frozenset({"a"})),
            GoldQuery("q2", "", frozenset({"b"})),
        ]
        # answering one of two gold queries perfectly must not score 100
        with pytest.raises(CorpusError, match="no result record"):
            evaluate_selection([{"query_id": "q1", "final": ["a"]}], gold)

    def test_repeated_query_id_fails(self):
        records = [
            {"query_id": "q1", "final": ["a"]},
            {"query_id": "q1", "final": ["b"]},
        ]
        with pytest.raises(CorpusError, match="more than one"):
            evaluate_selection(records, [GoldQuery("q1", "", frozenset({"a"}))])

    def test_repeated_gold_query_id_fails(self):
        gold = [
            GoldQuery("q1", "", frozenset({"a"})),
            GoldQuery("q1", "", frozenset({"b"})),
        ]
        # keeping only the last annotation would score a correct record 0
        with pytest.raises(CorpusError, match="more than one gold annotation"):
            evaluate_selection([{"query_id": "q1", "final": ["a"]}], gold)

    def test_empty_gold_sets_are_skipped(self):
        records = [
            {"query_id": "q1", "final": ["a"]},
            {"query_id": "q2", "final": ["b"]},
        ]
        gold = [
            GoldQuery("q1", "", frozenset()),
            GoldQuery("q2", "", frozenset({"b"})),
        ]
        evaluated, summary = evaluate_selection(records, gold)
        assert [e.query_id for e in evaluated] == ["q2"]
        # a query with an empty gold set needs no record
        evaluated, _ = evaluate_selection(records[1:], gold)
        assert [e.query_id for e in evaluated] == ["q2"]
        with pytest.raises(CorpusError):
            evaluate_selection(
                [{"query_id": "q1", "final": ["a"]}],
                [GoldQuery("q1", "", frozenset())],
            )


# ---------------------------------------------------------------------------
# Execution match
# ---------------------------------------------------------------------------


@pytest.fixture()
def db_path(tmp_path):
    path = tmp_path / "demo.sqlite"
    conn = sqlite3.connect(path)
    conn.executescript(
        """
        CREATE TABLE heads (id INTEGER, name TEXT, state TEXT);
        INSERT INTO heads VALUES (1, 'Ann', 'CO'), (2, 'Bo', 'UT'), (3, 'Cy', NULL);
        CREATE TABLE terms (head_id INTEGER, year INTEGER);
        INSERT INTO terms VALUES (1, 1998), (2, 2004), (2, 2008);
        """
    )
    conn.commit()
    conn.close()
    return path


def heads_db(path, rows):
    """A database whose one table, ``heads``, holds ``rows`` rows."""
    conn = sqlite3.connect(path)
    conn.execute("CREATE TABLE heads (id INTEGER)")
    conn.executemany("INSERT INTO heads VALUES (?)", [(i,) for i in range(rows)])
    conn.commit()
    conn.close()
    return path


class TestExecutionMatch:
    @pytest.mark.parametrize("name", ["x#y.sqlite", "p?q.sqlite", "a%41.sqlite"])
    def test_uri_characters_in_the_file_name(self, tmp_path, name):
        # '#', '?' and '%' end or escape a URI path unless percent-encoded
        heads_db(tmp_path / name, 3)
        out = execution_match(tmp_path / name, "SELECT count(*) FROM heads", "SELECT 3")
        assert out.status == "match"
        assert [f.name for f in tmp_path.iterdir()] == [name]

    def test_identical_statements_match(self, db_path):
        out = execution_match(db_path, "SELECT name FROM heads", "SELECT name FROM heads")
        assert out.status == "match"
        assert out.correct

    def test_row_order_ignored(self, db_path):
        out = execution_match(
            db_path,
            "SELECT name FROM heads ORDER BY name DESC",
            "SELECT name FROM heads ORDER BY name ASC",
        )
        assert out.status == "match"

    def test_column_order_respected(self, db_path):
        out = execution_match(
            db_path,
            "SELECT name, id FROM heads",
            "SELECT id, name FROM heads",
        )
        assert out.status == "mismatch"
        assert not out.correct

    @pytest.mark.parametrize(
        "pred, detail",
        [("", "empty prediction"), (" \n\t", "empty prediction"), ("-- none", "not a query"), (";", "not a query")],
    )
    def test_prediction_without_a_query_is_an_error_even_against_no_rows(self, db_path, pred, detail):
        out = execution_match(db_path, pred, "SELECT name FROM heads WHERE id < 0")
        assert (out.status, out.detail) == ("error", detail)

    def test_wrong_answer_mismatches(self, db_path):
        out = execution_match(
            db_path,
            "SELECT count(*) FROM heads WHERE state = 'CO'",
            "SELECT count(*) FROM heads",
        )
        assert out.status == "mismatch"

    def test_join_equivalence(self, db_path):
        out = execution_match(
            db_path,
            "SELECT DISTINCT h.name FROM heads h JOIN terms t ON h.id = t.head_id"
            " WHERE t.year > 2000",
            "SELECT name FROM heads WHERE id IN (SELECT head_id FROM terms WHERE year > 2000)",
        )
        assert out.status == "match"

    def test_duplicate_rows_are_counted(self, db_path):
        out = execution_match(
            db_path,
            "SELECT head_id FROM terms",
            "SELECT DISTINCT head_id FROM terms",
        )
        assert out.status == "mismatch"

    def test_prediction_error(self, db_path):
        out = execution_match(db_path, "SELECT broken FROM nowhere", "SELECT 1")
        assert out.status == "error"
        assert out.detail

    def test_gold_error(self, db_path):
        out = execution_match(db_path, "SELECT 1", "SELECT broken FROM nowhere")
        assert out.status == "gold_error"

    def test_writes_are_rejected(self, db_path):
        out = execution_match(
            db_path, "INSERT INTO heads VALUES (9, 'Zed', 'TX')", "SELECT 1"
        )
        assert out.status == "error"
        conn = sqlite3.connect(db_path)
        assert conn.execute("SELECT count(*) FROM heads").fetchone()[0] == 3
        conn.close()

    def test_timeout(self, db_path):
        runaway = (
            "WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM c) "
            "SELECT count(*) FROM c"
        )
        out = execution_match(db_path, runaway, "SELECT 1", timeout=0.1)
        assert out.status == "timeout"

    def test_null_and_float_canonicalization(self, db_path):
        assert execution_match(db_path, "SELECT NULL", "SELECT NULL").status == "match"
        assert execution_match(db_path, "SELECT 0.1 + 0.2", "SELECT 0.3").status == "match"
        assert execution_match(db_path, "SELECT 1", "SELECT 1.0").status == "match"
        assert execution_match(db_path, "SELECT X'00FF'", "SELECT X'00ff'").status == "match"
        assert execution_match(db_path, "SELECT NULL", "SELECT 'NULL'").status == "match"

    def test_missing_database(self, tmp_path):
        out = execution_match(tmp_path / "no.sqlite", "SELECT 1", "SELECT 1")
        assert out.status == "gold_error"

    def test_file_that_is_no_database(self, db_path, tmp_path):
        junk = tmp_path / "junk.sqlite"
        junk.write_bytes(b"not a database " * 100)
        out = execution_match(junk, "SELECT 1", "SELECT 1")
        assert out.status == "gold_error"
        assert out.detail.startswith("cannot open database:")
        assert execution_match(db_path, "SELECT 1", "SELECT 1").status == "match"

    @pytest.mark.parametrize(
        "pred",
        [
            'CREATE TEMP TABLE "heads"(x)',
            "ATTACH ':memory:' AS x",
            "PRAGMA table_info(heads)",
            "SELECT * FROM pragma_table_info('heads')",
            "BEGIN",
        ],
    )
    def test_non_read_prediction_is_refused_and_leaves_no_state(self, db_path, pred):
        count = "SELECT count(*) FROM heads"
        out = execution_match(db_path, pred, count)
        assert out.status == "error"
        assert "not authorized" in out.detail
        assert execution_match(db_path, count, count).status == "match"
        assert execution_match(db_path, "SELECT 3", count).status == "match"

    @pytest.mark.parametrize("gold", ["PRAGMA table_info(heads)", "BEGIN"])
    def test_non_read_gold_is_gold_error(self, db_path, gold):
        out = execution_match(db_path, "SELECT 1", gold)
        assert out.status == "gold_error"
        assert "not authorized" in out.detail

    def test_replaced_database_is_read_afresh(self, db_path, tmp_path):
        count = "SELECT count(*) FROM heads"
        assert execution_match(db_path, "SELECT 3", count).status == "match"
        os.replace(heads_db(tmp_path / "other.sqlite", 5), db_path)
        assert execution_match(db_path, "SELECT 5", count).status == "match"

    def test_deleted_database_is_gold_error(self, db_path):
        assert execution_match(db_path, "SELECT 1", "SELECT 1").status == "match"
        db_path.unlink()
        out = execution_match(db_path, "SELECT 1", "SELECT 1")
        assert out.status == "gold_error"
        assert out.detail.startswith("cannot open database:")

    def test_call_from_another_thread(self, db_path):
        count = "SELECT count(*) FROM heads"
        assert execution_match(db_path, count, count).status == "match"
        outcomes = []
        worker = threading.Thread(
            target=lambda: outcomes.append(execution_match(db_path, "SELECT 3", count))
        )
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        assert [o.status for o in outcomes] == ["match"]
        assert execution_match(db_path, "SELECT 3", count).status == "match"

    def test_alternating_databases(self, db_path, tmp_path):
        other = heads_db(tmp_path / "other.sqlite", 1)
        count = "SELECT count(*) FROM heads"
        for _ in range(2):
            assert execution_match(db_path, "SELECT 3", count).status == "match"
            assert execution_match(other, "SELECT 1", count).status == "match"

    def test_default_timeout_constant(self):
        assert EXECUTION_TIMEOUT_SECONDS == 60.0


class TestStratifiedSummary:
    def test_buckets_and_exclusions(self):
        results = [
            (ExecutionOutcome("match"), 1),
            (ExecutionOutcome("mismatch"), 1),
            (ExecutionOutcome("match"), 2),
            (ExecutionOutcome("timeout"), 3),
            (ExecutionOutcome("gold_error"), 2),
        ]
        summary = stratified_execution_summary(results)
        assert summary["queries"] == 4.0
        assert summary["gold_errors"] == 1.0
        assert summary["em_all"] == 50.0
        assert summary["em_single"] == 50.0
        assert summary["em_multi"] == 50.0

    def test_empty_bucket_is_zero(self):
        summary = stratified_execution_summary([(ExecutionOutcome("match"), 1)])
        assert summary["em_multi"] == 0.0
        assert summary["em_single"] == 100.0

    def test_render(self):
        summary = {"em_all": 9.15, "em_single": 100.0, "em_multi": 0.0}
        assert render_execution_table(summary) == (
            "| EM | EM =1T | EM >=2T |\n"
            "|---:|-------:|--------:|\n"
            "| 9.2 | 100.0 | 0.0 |"
        )


# ---------------------------------------------------------------------------
# SQL generation
# ---------------------------------------------------------------------------


class TestGenerateSql:
    def test_prompt_and_passthrough(self):
        generator = ScriptedGenerator(responses=["SELECT count(*) FROM heads"])
        ledger = TokenLedger()
        sql = generate_sql(
            "how many heads?",
            [("heads", "Table name: heads"), ("terms", "Table name: terms")],
            generator,
            ledger=ledger,
        )
        assert sql == "SELECT count(*) FROM heads"
        prompt = generator.calls[0]
        assert "how many heads?" in prompt
        assert "Table name: heads\n\nTable name: terms" in prompt
        assert list(ledger.stage_totals()) == [SQL_STAGE]

    def test_code_fence_stripped(self):
        for reply in (
            "```sql\nSELECT 1\n```",
            "```\nSELECT 1\n```",
            "```SELECT 1```",
            "  SELECT 1  ",
        ):
            generator = ScriptedGenerator(responses=[reply])
            assert generate_sql("q", [("t", "x")], generator, ledger=TokenLedger()) == "SELECT 1"


# ---------------------------------------------------------------------------
# Cost accounting
# ---------------------------------------------------------------------------


class TestCostLedger:
    def test_default_rates(self):
        assert INPUT_RATE_PER_MILLION == 0.15
        assert OUTPUT_RATE_PER_MILLION == 0.60

    def test_linear_estimate(self):
        assert cost_estimate(CostLedger(10_000_000, 1_000_000)) == pytest.approx(2.10)
        assert cost_estimate(CostLedger(0, 0)) == 0.0

    def test_documented_run_cost(self):
        # 51.7M input and 0.73M output tokens price out to $8.19
        cost = cost_estimate(CostLedger(51_700_000, 730_000))
        assert cost == pytest.approx(8.193)
        assert round(cost, 2) == 8.19

    def test_rate_overrides(self):
        ledger = CostLedger(1_000_000, 1_000_000, input_rate_per_million=1.0, output_rate_per_million=2.0)
        assert cost_estimate(ledger) == pytest.approx(3.0)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            CostLedger(-1, 0)

    def test_from_token_ledger(self):
        ledger = TokenLedger()
        ledger.record("selection", 1200, 50)
        ledger.record("sql", 800, 30)
        cost = CostLedger.from_token_ledger(ledger)
        assert (cost.input_tokens, cost.output_tokens) == (2000, 80)


# ---------------------------------------------------------------------------
# Every generation call is in the ledger
# ---------------------------------------------------------------------------


def run_purposes(generator, ledger, tmp_path):
    tables = [Table.build(tid, tid, ["x"], [[tid]]) for tid in ("a", "b", "c")]
    with pytest.raises(BackendError):  # the third purpose fails and stops enrichment
        enrich_tables(tables, generator, store=EnrichmentStore(tmp_path / "enriched.json"), ledger=ledger)


def run_selections(generator, ledger, tmp_path):
    embedder = HashingEmbedder(dimension=16)
    texts = {"a": "alpha rows", "b": "beta rows"}
    index = DenseIndex.build(texts, embedder)
    pipeline = OnlinePipeline(index, CompatibilityCache(edges=[]), embedder, generator, texts, ledger=ledger)
    results = [pipeline.run_query(f"rows question {i}") for i in range(3)]
    assert [r.fallback_used for r in results] == [False, True, True]


def run_sql(generator, ledger, tmp_path):
    for i in range(3):
        try:
            generate_sql(f"question {i}", [("t", "Table name: t")], generator, ledger=ledger)
        except BackendError:  # as e2e does: a query without SQL, and the batch goes on
            pass


PICK = json.dumps(
    {
        "group_formation": {"groups_formed": [{"group_index": 0, "table_indices": [0]}]},
        "group_selection": {"selected_group_index": 0},
    }
)


@pytest.mark.parametrize(
    "stage, run, replies",
    [
        ("purpose", run_purposes, ["Tables of a.", "None", ScriptedGenerator.FAIL]),
        ("selection", run_selections, [PICK, "no JSON here, sorry", ScriptedGenerator.FAIL]),
        ("sql", run_sql, ["SELECT 1", "```sql\nSELECT 2\n```", ScriptedGenerator.FAIL]),
    ],
    ids=["purpose", "selection", "sql"],
)
def test_every_generation_call_that_replies_is_in_the_ledger(tmp_path, stage, run, replies):
    """The ledger holds the whitespace tokens of each prompt that got a reply
    and of the reply, a malformed selection reply included; a failed call
    has no reply and no tokens."""
    generator = ScriptedGenerator(responses=replies)
    ledger = TokenLedger()
    run(generator, ledger, tmp_path)
    assert len(generator.calls) == len(replies)
    answered = [(prompt, reply) for prompt, reply in zip(generator.calls, replies) if reply is not ScriptedGenerator.FAIL]
    tokens = (sum(len(p.split()) for p, _ in answered), sum(len(r.split()) for _, r in answered))
    assert ledger.stage_totals() == {stage: tokens}
