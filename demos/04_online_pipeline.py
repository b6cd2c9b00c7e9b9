"""Run the online flow: retrieve top-k, select once, restore compatible tables."""

import json

from tablescout import (
    DenseIndex,
    HashingEmbedder,
    OnlinePipeline,
    ScriptedGenerator,
    Table,
    TableCorpus,
    TokenLedger,
    build_cache,
    enriched_text,
    markdown_grid,
    record_line,
    result_record,
    sample_rows,
)

tables = [
    Table.build(
        "flights",
        "flights",
        ["flight_id", "airport_code", "day"],
        [["1", "OSL", "mon"], ["2", "TRN", "tue"], ["3", "OSL", "wed"]],
    ),
    Table.build(
        "airports",
        "airports",
        ["airport_code", "airport_name"],
        [["OSL", "Oslo Gardermoen"], ["TRN", "Turin Caselle"], ["LOS", "Lagos Murtala"]],
    ),
    Table.build("crews", "crews", ["crew_id", "base"], [["c1", "OSL"], ["c2", "LOS"]]),
    Table.build("menus", "menus", ["dish"], [["pasta"], ["stew"]]),
]
corpus = TableCorpus(tables=tuple(tables), provenance={})

embedder = HashingEmbedder(dimension=128)
texts = {t.id: enriched_text(t, "", markdown_grid(t, sample_rows(t))) for t in tables}
index = DenseIndex.build(texts, embedder)
cache = build_cache(corpus, embedder)

# The model sees numbered candidates plus the cached compatibility lines and
# answers with JSON groups. Script one well-formed answer and one broken one.
good_answer = json.dumps(
    {
        "group_formation": {"groups_formed": [{"group_index": 0, "table_indices": [0, 1]}]},
        "group_selection": {"selected_group_index": 0},
    }
)
generator = ScriptedGenerator(responses=[good_answer, "sorry, no JSON today"])

ledger = TokenLedger()
pipeline = OnlinePipeline(index, cache, embedder, generator, texts=texts, k=4, ledger=ledger)

result = pipeline.run_query("flights leaving from each airport")
print("top-k:    ", result.topk)
print("selected: ", result.selected)
print("restored: ", result.restored)  # strong cached partners pulled back in
print("final:    ", result.final)
print("fallback: ", result.fallback_used)

# A malformed answer never crashes a query. The pipeline falls back to the
# full dense top-k and flags the record.
result2 = pipeline.run_query("crew schedules")
print("\nfallback: ", result2.fallback_used)
print("final == top-k:", result2.final == result2.topk)

# Both selection calls are in the ledger, the one that fell back too.
print("selection tokens in/out:", ledger.stage_totals()["selection"])

# One JSONL line per query is what the CLI writes to results.jsonl.
print("\n" + record_line(result_record("q0", result)))
