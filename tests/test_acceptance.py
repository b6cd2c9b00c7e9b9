"""Acceptance suite: one test per shipping criterion.

Each criterion is a single test function, so a verbose pytest run prints one
pass/fail line per criterion. Every test also prints a summary line with its
measured numbers (visible with -s, or on failure).
"""

import json
import os
import time

import numpy as np
import pytest

from tablescout import (
    CompatibilityCache,
    DenseIndex,
    HashingEmbedder,
    OnlinePipeline,
    ScriptedGenerator,
    TableCorpus,
    TokenLedger,
    build_cache,
    enriched_text,
    markdown_grid,
    record_line,
    result_record,
    sample_rows,
    selection_metrics,
)
from tablescout.compatibility import JoinEdge, evaluate_cache, gold_joins_from_records
from tablescout.corpus import load_corpus
from tablescout.evaluation import (
    INPUT_RATE_PER_MILLION,
    OUTPUT_RATE_PER_MILLION,
    CostLedger,
    aggregate_metrics,
    cost_estimate,
    render_metrics_table,
)
from tablescout.pipeline import adjust
from tablescout.services import cosine

from synth import (
    oracle_has_valid_pair,
    oracle_table_compatibility,
    planted_fk_corpus,
    random_corpus,
    random_table,
)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


# ---------------------------------------------------------------------------
# 1. Cache scores match an independent brute-force enumeration
# ---------------------------------------------------------------------------


def test_criterion_1_cache_matches_brute_force():
    emb = HashingEmbedder(dimension=64)
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    mismatches = []
    pairs_checked = 0
    for trial in range(50):
        corpus = random_corpus(rng, max_tables=6, max_cols=8, max_rows=200)
        cache = build_cache(corpus, emb)
        tables = sorted(corpus, key=lambda t: t.id)
        positive = 0
        for i, ti in enumerate(tables):
            for tj in tables[i + 1 :]:
                pairs_checked += 1
                want = oracle_table_compatibility(ti, tj, emb)
                edge = cache.edge(ti.id, tj.id)
                if want is None:
                    if edge is not None:
                        mismatches.append((trial, ti.id, tj.id, "unexpected edge"))
                    continue
                positive += 1
                want_cs, want_cols = want
                if edge is None:
                    mismatches.append((trial, ti.id, tj.id, "missing edge"))
                elif abs(edge.score - want_cs) > 1e-12:
                    mismatches.append((trial, ti.id, tj.id, f"cs {edge.score} != {want_cs}"))
                elif (edge.left_column, edge.right_column) != want_cols:
                    mismatches.append((trial, ti.id, tj.id, "different best_join"))
        if len(cache) != positive:
            mismatches.append((trial, "-", "-", "cache size disagrees with oracle"))
    elapsed = time.perf_counter() - started
    ok = not mismatches and elapsed < 10.0
    report(1, ok, f"{pairs_checked} pairs over 50 corpora, {len(mismatches)} mismatches, {elapsed:.2f}s")
    assert not mismatches, mismatches[:5]
    assert elapsed < 10.0, f"took {elapsed:.2f}s, budget is 10s"


# ---------------------------------------------------------------------------
# 2. Planted key-foreign-key pairs are recovered
# ---------------------------------------------------------------------------


def test_criterion_2_planted_fk_recovery():
    emb = HashingEmbedder(dimension=64)
    rng = np.random.default_rng(202)
    trials = 200
    hits = 0
    validity_violations = 0
    for _ in range(trials):
        corpus, parent_id, child_id, join_col = planted_fk_corpus(rng)
        cache = build_cache(corpus, emb)
        planted = cache.edge(parent_id, child_id)
        if planted is not None and planted.oriented(parent_id) == (join_col, join_col):
            hits += 1
        by_id = {t.id: t for t in corpus}
        for edge in cache:
            if not oracle_has_valid_pair(by_id[edge.left_table], by_id[edge.right_table]):
                validity_violations += 1
    ok = hits >= 0.95 * trials and validity_violations == 0
    report(2, ok, f"planted pair won {hits}/{trials}, {validity_violations} validity violations")
    assert hits >= 0.95 * trials
    assert validity_violations == 0


# ---------------------------------------------------------------------------
# 3. Determinism, and fallback exactly on malformed responses
# ---------------------------------------------------------------------------


def selection_reply(indices):
    return json.dumps(
        {
            "group_formation": {
                "groups_formed": [{"group_index": 0, "table_indices": list(indices)}]
            },
            "group_selection": {"selected_group_index": 0},
        }
    )


def fixture_20_tables():
    rng = np.random.default_rng(303)
    tables = [random_table(rng, f"t{i:02d}", max_cols=5, max_rows=30) for i in range(20)]
    emb = HashingEmbedder(dimension=64)
    texts = {t.id: enriched_text(t, "", markdown_grid(t, sample_rows(t))) for t in tables}
    index = DenseIndex.build(texts, emb)
    cache = build_cache(TableCorpus(tables=tuple(tables), provenance={}), emb)
    queries = [f"query {w} listing" for w in (
        "rivers", "codes", "labels", "keys", "names", "values", "cats", "pairs",
        "rows", "ids", "links", "stats", "sums", "ранг", "facts", "items",
        "users", "dates", "rates", "flags",
    )]
    return emb, texts, index, cache, queries


def run_batch(emb, texts, index, cache, queries, responses):
    generator = ScriptedGenerator(responses=responses)
    pipeline = OnlinePipeline(index, cache, emb, generator, texts=texts, k=10, ledger=TokenLedger())
    lines = []
    results = []
    for qi, query in enumerate(queries):
        result = pipeline.run_query(query)
        results.append(result)
        lines.append(record_line(result_record(f"q{qi:02d}", result)))
    return "\n".join(lines), results


def test_criterion_3_determinism_and_fallback():
    emb, texts, index, cache, queries = fixture_20_tables()
    good = [selection_reply([0, 2]) for _ in queries]
    outputs = {run_batch(emb, texts, index, cache, queries, list(good))[0] for _ in range(100)}
    identical = len(outputs) == 1

    bad_positions = {i for i in range(len(queries)) if i % 10 in (1, 4, 7)}
    assert len(bad_positions) == round(0.3 * len(queries))
    injected = [
        "### no json here ###" if i in bad_positions else selection_reply([0, 2])
        for i in range(len(queries))
    ]
    _, results = run_batch(emb, texts, index, cache, queries, injected)
    fallback_correct = True
    for i, result in enumerate(results):
        if result.fallback_used != (i in bad_positions):
            fallback_correct = False
        if i in bad_positions and result.final != result.topk:
            fallback_correct = False
        if i in bad_positions and len(result.final) != 10:
            fallback_correct = False
    ok = identical and fallback_correct
    report(
        3,
        ok,
        f"{len(outputs)} distinct outputs over 100 runs, "
        f"fallback on exactly {sorted(bad_positions)}: {fallback_correct}",
    )
    assert identical
    assert fallback_correct


# ---------------------------------------------------------------------------
# 4. Restoration is additive
# ---------------------------------------------------------------------------


def test_criterion_4_adjustment_additivity():
    rng = np.random.default_rng(404)
    emb = HashingEmbedder(dimension=32)
    words = ["ore", "tide", "lamp", "vine", "moss", "dust", "peak", "fern", "clay"]
    recall_ok = 0
    subset_ok = 0
    trials = 500
    for _ in range(trials):
        n = int(rng.integers(3, 12))
        texts = {f"t{i:02d}": " ".join(rng.choice(words, size=5)) for i in range(n)}
        index = DenseIndex.build(texts, emb)
        ids = sorted(texts)
        edges = [
            JoinEdge(float(rng.uniform(0.05, 1.0)), ids[i], "x", ids[j], "y")
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.4
        ]
        cache = CompatibilityCache(edges=edges, backend_id=emb.backend_id)
        k = int(rng.integers(1, n + 1))
        pick = rng.choice(k, size=int(rng.integers(0, k + 1)), replace=False)
        tau = float(rng.choice([0.0, 0.2, 0.3, 0.7, 1.0]))
        generator = ScriptedGenerator(responses=[selection_reply(sorted(map(int, pick)))])
        pipeline = OnlinePipeline(index, cache, emb, generator, texts=texts, k=k, tau=tau, ledger=TokenLedger())
        result = pipeline.run_query(" ".join(rng.choice(words, size=3)))

        gold = set(rng.choice(ids, size=int(rng.integers(1, n + 1)), replace=False))
        recall_final = len(set(result.final) & gold) / len(gold)
        recall_selected = len(set(result.selected) & gold) / len(gold)
        if recall_final >= recall_selected:
            recall_ok += 1
        if set(result.final) <= set(result.topk):
            subset_ok += 1
        assert adjust(result.selected, result.topk, cache, tau=1.01) == ()
    ok = recall_ok == trials and subset_ok == trials
    report(
        4,
        ok,
        f"recall(S) >= recall(T_K') in {recall_ok}/{trials}, "
        f"S within T_K in {subset_ok}/{trials}, tau=1.01 restored nothing",
    )
    assert recall_ok == trials
    assert subset_ok == trials


# ---------------------------------------------------------------------------
# 5. Metrics match hand-computed values and the report layout
# ---------------------------------------------------------------------------

# (predicted, gold, precision as (num, den), recall as (num, den), perfect_recall)
METRIC_CASES = [
    ({"a"}, {"a"}, (1, 1), (1, 1), 1),
    ({"a", "b"}, {"a", "b"}, (1, 1), (1, 1), 1),
    ({"a", "b", "c"}, {"a", "b"}, (2, 3), (1, 1), 1),
    ({"a"}, {"a", "b"}, (1, 1), (1, 2), 0),
    (set(), {"a"}, (0, 1), (0, 1), 0),
    ({"x"}, {"a"}, (0, 1), (0, 1), 0),
    ({"x", "y"}, {"a", "b"}, (0, 1), (0, 1), 0),
    ({"a", "x"}, {"a", "b"}, (1, 2), (1, 2), 0),
    ({"a", "b", "x", "y"}, {"a", "b"}, (2, 4), (1, 1), 1),
    ({"a", "b", "c", "d"}, {"a", "b", "c", "d", "e"}, (1, 1), (4, 5), 0),
    ({"a", "x", "y", "z"}, {"a", "b"}, (1, 4), (1, 2), 0),
    ({"a", "b", "c"}, {"c"}, (1, 3), (1, 1), 1),
    ({"a", "b", "c", "d", "e"}, {"a", "b", "c"}, (3, 5), (1, 1), 1),
    ({"a", "b"}, {"a", "b", "c", "d"}, (1, 1), (2, 4), 0),
    ({"a", "b", "x"}, {"a", "b", "c"}, (2, 3), (2, 3), 0),
    ({"q"}, {"q", "r", "s", "t", "u"}, (1, 1), (1, 5), 0),
    ({"q", "r", "s", "t", "u"}, {"q"}, (1, 5), (1, 1), 1),
    ({"a", "b", "c", "x"}, {"a", "b", "c", "d"}, (3, 4), (3, 4), 0),
    ({"m", "n", "o", "p", "x", "y"}, {"m", "n", "o"}, (3, 6), (1, 1), 1),
    ({"a", "x", "y"}, {"a", "b", "c"}, (1, 3), (1, 3), 0),
]


def test_criterion_5_metric_correctness():
    assert len(METRIC_CASES) == 20
    failures = []
    for i, (pred, gold, (pn, pd), (rn, rd), pr) in enumerate(METRIC_CASES):
        record = selection_metrics(pred, gold, query_id=f"case{i}")
        p = pn / pd
        r = rn / rd
        f1 = 0.0 if p + r == 0 else 2 * p * r / (p + r)
        if (record.precision, record.recall, record.f1, record.perfect_recall) != (p, r, f1, pr):
            failures.append((i, record))
    layout = render_metrics_table(
        aggregate_metrics(
            [selection_metrics(pred, gold) for pred, gold, *_ in METRIC_CASES]
        )
    )
    lines = layout.splitlines()
    layout_ok = (
        lines[0] == "| Avg #tab. | P | R | F1 | PR |"
        and len(lines) == 3
        and all(cell.strip().count(".") == 1 and len(cell.strip().split(".")[1]) == 1
                for cell in lines[2].strip("|").split("|"))
    )
    ok = not failures and layout_ok
    report(5, ok, f"{20 - len(failures)}/20 fixed cases exact, layout one-decimal: {layout_ok}")
    assert not failures, failures
    assert layout_ok, layout


# ---------------------------------------------------------------------------
# 6. The persisted index reproduces an exhaustive scan
# ---------------------------------------------------------------------------


def test_criterion_6_index_exactness(tmp_path):
    emb = HashingEmbedder(dimension=64)
    rng = np.random.default_rng(606)
    words = ["river", "city", "train", "tax", "school", "crop", "fish", "star",
             "мост", "port", "mine", "farm", "shop", "bank", "park", "lake"]
    started = time.perf_counter()
    texts = {
        f"table{i:03d}": " ".join(rng.choice(words, size=6)) for i in range(500)
    }
    index = DenseIndex.build(texts, emb)
    path = tmp_path / "index.npz"
    index.save(path)
    loaded = DenseIndex.load(path, expected_backend_id=emb.backend_id)
    # the exhaustive oracle embeds each text once, not once per query
    text_vectors = {tid: emb.embed(text) for tid, text in texts.items()}
    mismatches = 0
    for _ in range(100):
        query = " ".join(rng.choice(words, size=4))
        got = [tid for tid, _ in loaded.search(emb.embed(query), 10)]
        qv = emb.embed(query)
        want = [
            tid
            for tid, _ in sorted(
                ((tid, cosine(vec, qv)) for tid, vec in text_vectors.items()),
                key=lambda pair: (-pair[1], pair[0]),
            )[:10]
        ]
        if got != want:
            mismatches += 1
    elapsed = time.perf_counter() - started
    ok = mismatches == 0 and elapsed < 5.0
    report(6, ok, f"100 queries over 500 tables, {mismatches} list mismatches, {elapsed:.2f}s")
    assert mismatches == 0
    assert elapsed < 5.0, f"took {elapsed:.2f}s, budget is 5s"


# ---------------------------------------------------------------------------
# 7. Cost arithmetic and published rates
# ---------------------------------------------------------------------------


def test_criterion_7_cost_formula():
    ledger = CostLedger(input_tokens=51_700_000, output_tokens=730_000)
    cost = cost_estimate(ledger)
    rates_exact = INPUT_RATE_PER_MILLION == 0.15 and OUTPUT_RATE_PER_MILLION == 0.60
    ok = abs(cost - 8.193) < 1e-9 and round(cost, 2) == 8.19 and rates_exact
    report(7, ok, f"51.7M in + 0.73M out -> ${cost:.3f} (${round(cost, 2):.2f}), rates 0.15/0.60: {rates_exact}")
    assert cost == pytest.approx(8.193, abs=1e-9)
    assert round(cost, 2) == 8.19
    assert rates_exact


# ---------------------------------------------------------------------------
# 8. External reproduction (optional, never gating)
# ---------------------------------------------------------------------------

REPRO_ENV = "TABLESCOUT_REPRO_CONFIG"

# documented targets, plus/minus 3 points (the error metric scaled by 100)
REPRO_TARGETS = {
    "bird": {"joinability_accuracy": 97.3, "column_accuracy": 84.5, "avg_score_error": 0.092},
    "spider": {"joinability_accuracy": 89.1, "column_accuracy": 69.0, "avg_score_error": 0.104},
}


@pytest.mark.skipif(
    REPRO_ENV not in os.environ,
    reason=(
        "external corpora not provided; set TABLESCOUT_REPRO_CONFIG to a JSON file "
        'like {"bird": {"cache": ".../compat_cache.json", "gold_joins": ".../joins.json", '
        '"corpus": ".../corpus.json"}, '
        '"spider": {...}} built with a real embedding backend to run this check'
    ),
)
def test_criterion_8_external_reproduction():
    config = json.loads(open(os.environ[REPRO_ENV], encoding="utf-8").read())
    failures = []
    for dataset, targets in REPRO_TARGETS.items():
        if dataset not in config:
            continue
        cache = CompatibilityCache.load(config[dataset]["cache"])
        raw = json.loads(open(config[dataset]["gold_joins"], encoding="utf-8").read())
        corpus = load_corpus(config[dataset]["corpus"])
        metrics = evaluate_cache(cache, gold_joins_from_records(raw), corpus)
        checks = [
            ("joinability_accuracy", 100 * metrics["joinability_accuracy"], targets["joinability_accuracy"], 3.0),
            ("column_accuracy", 100 * metrics["column_accuracy"], targets["column_accuracy"], 3.0),
            ("avg_score_error", metrics["avg_score_error"], targets["avg_score_error"], 0.03),
        ]
        for name, got, want, tol in checks:
            if abs(got - want) > tol:
                failures.append(f"{dataset}.{name}: {got:.3f} vs {want} (+/-{tol})")
    ok = not failures
    report(8, ok, f"{len(failures)} metrics outside tolerance")
    assert not failures, failures
