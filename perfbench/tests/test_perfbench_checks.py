"""Each benchmark check passes on a correct output and fails on a corrupted one.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import shutil
import sqlite3
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import gen  # noqa: E402
from stub import PlannedModel  # noqa: E402
from tablescout import compatibility, corpus, evaluation, indexing, services  # noqa: E402

EMBED = services.HashingEmbedder().embed


def _plan_tables() -> dict:
    return {
        "customers": {"columns": ["customer_id", "name"], "source": "a",
                      "rows": [["c1", "Ada"], ["c2", "Bo"], ["c3", "Cy"], ["c4", None]]},
        "orders": {"columns": ["order_id", "customer_id", "total"], "source": "a",
                   "rows": [["o1", "c1", "3"], ["o2", "c1", "4"], ["o3", "c2", "5"]]},
        "stock": {"columns": ["sku", "qty"], "source": "b",
                  "rows": [["s1", "9"], ["s2", "9"]]},
    }


def _corpus(tables: dict):
    by_source: dict[str, list] = {}
    for tid, t in tables.items():
        by_source.setdefault(t["source"], []).append(corpus.Table.build(tid, tid, t["columns"], t["rows"]))
    return corpus.pool_corpora(by_source.items())


# ---------------------------------------------------------------------------
# Corpus
# ---------------------------------------------------------------------------


def test_corpus_check_passes_on_the_pooled_corpus():
    tables = _plan_tables()
    assert checks.check_corpus(_corpus(tables), tables) == []


def test_corpus_check_fails_on_a_changed_cell_or_source():
    tables = _plan_tables()
    pooled = _corpus(tables)
    changed = json.loads(json.dumps(tables))
    changed["orders"]["rows"][0][2] = "30"
    assert checks.check_corpus(pooled, changed)
    changed = json.loads(json.dumps(tables))
    changed["stock"]["source"] = "a"
    assert checks.check_corpus(pooled, changed)


def test_pooling_rule_matches_the_program():
    sources = [("zz", ["orders", "customers"]), ("aa", ["orders"]), ("mm", ["orders", "orders__2"])]
    program = corpus.pool_corpora(
        (label, [corpus.Table.build(n, n, ["x"], [[label]]) for n in names]) for label, names in sources
    )
    ours = {(label, pid) for label, _, pid in gen.pooled_ids(sources)}
    assert ours == {(program.provenance[t.id], t.id) for t in program}


# ---------------------------------------------------------------------------
# Compatibility cache
# ---------------------------------------------------------------------------


def _cache_case():
    tables = _plan_tables()
    cache = compatibility.build_cache(_corpus(tables), services.CachingEmbedder(services.HashingEmbedder()))
    oracle = checks.JoinOracle(tables, EMBED)
    pairs = [("customers", "orders"), ("customers", "stock"), ("orders", "stock")]
    return cache, oracle, pairs


def test_cache_check_passes_on_the_built_cache():
    cache, oracle, pairs = _cache_case()
    assert oracle.best("orders", "customers")[1:] == ("customer_id", "customer_id")
    assert checks.check_cache(cache, oracle, pairs) == []


def test_cache_check_fails_on_a_changed_score():
    cache, oracle, pairs = _cache_case()
    edges = [compatibility.JoinEdge(e.score + 1e-6, e.left_table, e.left_column, e.right_table, e.right_column)
             for e in cache]
    assert checks.check_cache(compatibility.CompatibilityCache(edges), oracle, pairs)


def test_cache_check_fails_on_a_wrong_column_a_missing_or_an_extra_edge():
    cache, oracle, pairs = _cache_case()
    edge = cache.edge("customers", "orders")
    wrong = compatibility.JoinEdge(edge.score, edge.left_table, "name", edge.right_table, edge.right_column)
    assert checks.check_cache(compatibility.CompatibilityCache([wrong]), oracle, pairs)
    assert checks.check_cache(compatibility.CompatibilityCache([]), oracle, pairs)
    extra = compatibility.JoinEdge(0.4, "orders", "total", "stock", "qty")
    assert checks.check_cache(compatibility.CompatibilityCache([edge, extra]), oracle, pairs)


def test_sample_pairs_keeps_every_planted_pair():
    tables = {f"t{i}": {} for i in range(30)}
    joins = [{"child": "t3", "parent": "t1"}, {"child": "t7", "parent": "t2"}]
    pairs = checks.sample_pairs(tables, joins, seed=5, others=20)
    assert ("t1", "t3") in pairs and ("t2", "t7") in pairs
    assert len(pairs) == 22 == len(set(pairs))
    assert pairs == checks.sample_pairs(tables, joins, seed=5, others=20)


# ---------------------------------------------------------------------------
# Dense index
# ---------------------------------------------------------------------------


def _index_case():
    rng = np.random.default_rng(3)
    ids = [f"t{i:02d}" for i in range(40)]
    index = indexing.DenseIndex(ids, rng.normal(size=(40, 16)), "test")
    query = rng.normal(size=16)
    return index, query, [tid for tid, _ in index.search(query, 5)]


def test_index_check_passes_on_the_index_search():
    index, query, got = _index_case()
    assert checks.check_topk(index.ids, index.vectors, query, 5, got, "q") == []


def test_index_check_fails_on_a_swapped_or_replaced_id():
    index, query, got = _index_case()
    swapped = [got[1], got[0]] + got[2:]
    assert checks.check_topk(index.ids, index.vectors, query, 5, swapped, "q")
    outsider = next(t for t in index.ids if t not in got)
    assert checks.check_topk(index.ids, index.vectors, query, 5, got[:4] + [outsider], "q")
    assert checks.check_topk(index.ids, index.vectors, query, 5, got[:4], "q")


def test_index_check_breaks_exact_ties_by_id():
    vectors = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    ids = ["b", "a", "c"]
    assert checks.exhaustive_topk(ids, vectors, np.array([1.0, 0.0]), 2) == [("a", 1.0), ("b", 1.0)]


# ---------------------------------------------------------------------------
# Per-query invariants
# ---------------------------------------------------------------------------

SCORES = {frozenset(("a", "b")): 0.6, frozenset(("a", "c")): 0.2, frozenset(("b", "d")): 0.9}


def _score(x: str, y: str) -> float:
    return SCORES.get(frozenset((x, y)), 0.0)


def _query(reply="normal") -> dict:
    return {"query_id": "q1", "reply": reply, "mention": ["a"], "gold_tables": ["a", "b"], "distractor": False}


def _record(**changes) -> dict:
    record = {"query_id": "q1", "topk": ["a", "b", "c", "d"], "selected": ["a"], "restored": ["b"],
              "final": ["a", "b"], "fallback_used": False}
    record.update(changes)
    return record


def test_record_check_passes_on_pick_plus_single_pass_restore():
    assert checks.check_record(_record(), _query(), _score, 0.3, 4) == ([], False)


def test_single_pass_restore_does_not_chain_through_restored_tables():
    # b is restored for a; d is b's best partner but b was not picked
    assert checks.single_pass_restore(["a"], ["a", "b", "c", "d"], _score, 0.3) == ["b"]
    assert checks.single_pass_restore(["a"], ["a", "b", "c", "d"], _score, 0.7) == []


@pytest.mark.parametrize("changes", [
    {"final": ["a", "b", "z"]},                      # final set not a subset of the top-k
    {"final": ["b"]},                                # final set drops the pick
    {"restored": [], "final": ["a"]},                # restoration skipped
    {"restored": ["b", "d"], "final": ["a", "b", "d"]},  # restoration chained
    {"selected": ["a", "c"], "final": ["a", "b", "c"]},  # pick differs from the reply
    {"fallback_used": True, "final": ["a", "b", "c", "d"], "selected": [], "restored": []},
    {"topk": ["a", "b", "c"]},                       # short top-k
])
def test_record_check_fails_on_a_corrupted_record(changes):
    problems, failed = checks.check_record(_record(**changes), _query(), _score, 0.3, 4)
    assert problems and not failed


@pytest.mark.parametrize("reply", ["malformed", "backend_error"])
def test_planted_bad_replies_must_fall_back_to_the_top_k(reply):
    fallback = _record(selected=[], restored=[], final=["a", "b", "c", "d"], fallback_used=True)
    assert checks.check_record(fallback, _query(reply), _score, 0.3, 4) == ([], False)
    problems, _ = checks.check_record(_record(), _query(reply), _score, 0.3, 4)
    assert problems


def test_empty_pick_counts_as_failed_until_it_falls_back():
    kept = _record(selected=[], restored=[], final=[], fallback_used=False)
    assert checks.check_record(kept, _query("empty_pick"), _score, 0.3, 4) == ([], True)
    fallback = _record(selected=[], restored=[], final=["a", "b", "c", "d"], fallback_used=True)
    assert checks.check_record(fallback, _query("empty_pick"), _score, 0.3, 4) == ([], False)
    problems, failed = checks.check_record(_record(final=["a"]), _query("empty_pick"), _score, 0.3, 4)
    assert problems and not failed


# ---------------------------------------------------------------------------
# Quality
# ---------------------------------------------------------------------------


def _quality_case():
    queries = [
        {"query_id": "q1", "gold_tables": ["a", "b"]},
        {"query_id": "q2", "gold_tables": ["c"]},
    ]
    records = [{"query_id": "q1", "final": ["a", "b"]}, {"query_id": "q2", "final": ["d"]}]
    gold = [evaluation.GoldQuery(q["query_id"], "", frozenset(q["gold_tables"])) for q in queries]
    _, summary = evaluation.evaluate_selection(records, gold)
    return queries, records, gold, summary


def test_quality_check_passes_on_the_program_summary():
    queries, records, _, summary = _quality_case()
    assert checks.check_quality(records, queries, summary, 50.0) == []


def test_quality_check_fails_on_a_dropped_record():
    queries, records, gold, _ = _quality_case()
    _, summary = evaluation.evaluate_selection(records[:1], gold)
    assert checks.check_quality(records[:1], queries, summary, 100.0)


def test_quality_check_fails_on_a_changed_metric_or_execution_rate():
    queries, records, _, summary = _quality_case()
    assert checks.check_quality(records, queries, dict(summary, f1=summary["f1"] + 1), 50.0)
    assert checks.check_quality(records, queries, summary, 100.0)


# ---------------------------------------------------------------------------
# Model use and repeatability
# ---------------------------------------------------------------------------


def _sql_calls(n: int):
    plan = {"question": "q000: how many t rows?", "reply": "normal", "mention": ["t"],
            "gold_tables": ["t"], "distractor": False, "gold_sql": "SELECT 1"}
    model = PlannedModel([plan])
    generator = services.ScriptedGenerator(reply=model)
    ledger = services.TokenLedger()
    for _ in range(n):
        evaluation.generate_sql(plan["question"], [("t", "Table name: t\nTable content: | a |")], generator, ledger=ledger)
    return model, len(generator.calls), ledger.input_tokens + ledger.output_tokens


def test_model_use_check_passes_on_the_generator_and_ledger():
    model, calls, tokens = _sql_calls(3)
    assert calls == 3
    assert checks.check_model_use(model.calls, model.tokens, calls, tokens) == []


def test_model_use_check_fails_on_a_ledger_or_call_count_off_by_one():
    model, calls, tokens = _sql_calls(3)
    assert checks.check_model_use(model.calls, model.tokens, calls, tokens + 1)
    assert checks.check_model_use(model.calls, model.tokens, calls - 1, tokens)


def test_repeat_check_passes_on_identical_cold_builds_and_fails_on_a_changed_byte(tmp_path):
    pooled = _corpus(_plan_tables())
    produced = []
    for name in ("a", "b"):
        path = tmp_path / f"{name}.json"
        compatibility.build_cache(pooled, services.HashingEmbedder()).save(path)
        produced.append([path.read_bytes()])
    assert checks.check_repeat(produced[0], produced[1], "cold build") == []
    corrupted = bytearray(produced[1][0])
    corrupted[len(corrupted) // 2] ^= 1
    assert checks.check_repeat(produced[0], [bytes(corrupted)], "cold build")


def test_repeat_check_fails_on_a_changed_or_dropped_record():
    _, records, _, _ = _quality_case()
    assert checks.check_repeat(records, [dict(r) for r in records], "query batch") == []
    changed = [dict(r) for r in records]
    changed[0]["final"] = changed[0]["final"][:-1]
    assert checks.check_repeat(records, changed, "query batch")
    assert checks.check_repeat(records, records[1:], "query batch")


# ---------------------------------------------------------------------------
# Growing a pool
# ---------------------------------------------------------------------------


def _grow_case():
    tables = {"orders": {"columns": ["sku", "price"]}, "orders__2": {"columns": ["order_id", "total"]}}
    texts = {
        "orders": "Table name: orders\nTable content: | sku | price |\n|---|",
        "orders__2": "Table name: orders__2\nTable content: | order_id | total |\n|---|",
    }
    return tables, texts


def test_grow_check_passes_on_current_texts():
    tables, texts = _grow_case()
    assert checks.check_grow(texts, sorted(tables), tables, 1, ["orders__2"], ["orders"]) == ([], [])


def test_grow_check_counts_a_known_stale_id_as_failed():
    tables, texts = _grow_case()
    texts["orders"] = "Table name: orders\nTable content: | order_id | total |\n|---|"
    assert checks.check_grow(texts, sorted(tables), tables, 1, ["orders__2"], ["orders"]) == ([], ["orders"])


def test_grow_check_fails_on_an_unexpected_stale_text_or_extra_purpose_calls():
    tables, texts = _grow_case()
    texts["orders__2"] = "Table name: orders__2\nTable content: | sku | price |\n|---|"
    problems, _ = checks.check_grow(texts, sorted(tables), tables, 1, ["orders__2"], ["orders"])
    assert problems
    tables, texts = _grow_case()
    problems, _ = checks.check_grow(texts, sorted(tables), tables, 2, ["orders__2"], ["orders"])
    assert problems
    problems, _ = checks.check_grow(texts, ["orders"], tables, 1, ["orders__2"], ["orders"])
    assert problems


# ---------------------------------------------------------------------------
# Inputs, model and entry point
# ---------------------------------------------------------------------------


def test_generator_is_deterministic_and_keeps_the_schema_across_seeds(tmp_path):
    a = gen.make_plan("grow", 1, tmp_path / "a")
    again = gen.make_plan("grow", 1, tmp_path / "a")
    b = gen.make_plan("grow", 2, tmp_path / "b")
    assert a == again
    for key in ("base", "grown"):
        assert {t: v["columns"] for t, v in a[key]["tables"].items()} == {t: v["columns"] for t, v in b[key]["tables"].items()}
        assert a[key]["joins"] == b[key]["joins"]
    assert [q["question"] for q in a["queries"]] == [q["question"] for q in b["queries"]]
    assert a["grown"]["tables"] != b["grown"]["tables"]
    assert a["stale_ids"] == ["customers", "orders"]


def test_model_token_count_matches_the_scripted_generator():
    plan = {"question": "q000: how many t rows?", "reply": "normal", "mention": ["t"],
            "gold_tables": ["t"], "distractor": False, "gold_sql": "SELECT 1"}
    model = PlannedModel([plan])
    generator = services.ScriptedGenerator(reply=model)
    prompt = evaluation.SQL_PROMPT_TEMPLATE.format(
        question=plan["question"], tables_content="Table name: t\nTable content: | a |")
    response = generator.generate(services.GenerationRequest(prompt=prompt))
    assert response.text == "SELECT 1"
    assert model.calls == 1 and model.tokens == response.input_tokens + response.output_tokens


def test_sql_without_the_gold_tables_reads_a_handed_table_and_cannot_match(tmp_path):
    db = tmp_path / "pool.sqlite"
    conn = sqlite3.connect(db)
    conn.execute('CREATE TABLE "t" ("a" TEXT)')
    conn.execute("INSERT INTO \"t\" VALUES ('x')")
    conn.commit()
    conn.close()
    plan = {"question": "q000: how many g rows?", "reply": "normal", "mention": ["g"],
            "gold_tables": ["g"], "distractor": False, "gold_sql": 'SELECT COUNT(*) FROM "t"'}
    prompt = evaluation.SQL_PROMPT_TEMPLATE.format(
        question=plan["question"], tables_content="Table name: t\nTable content: | a |")
    sql = PlannedModel([plan])(prompt)
    assert 'FROM "t"' in sql
    assert evaluation.execution_match(str(db), sql, plan["gold_sql"]).status == "mismatch"


def test_run_refuses_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    if (ROOT / "BENCHMARK.json").exists():
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "build", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
