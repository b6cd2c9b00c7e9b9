"""Enrich tables with generated purposes and build a searchable dense index."""

import tempfile
from pathlib import Path

from tablescout import (
    DenseIndex,
    HashingEmbedder,
    ScriptedGenerator,
    Table,
    TokenLedger,
    enrich_tables,
)
from tablescout.indexing import EnrichmentStore

tables = [
    Table.build(
        "museums",
        "museums",
        ["museum_id", "name", "city_id"],
        [["1", "Louvre", "10"], ["2", "Prado", "11"], ["3", "MoMA", "12"]],
    ),
    Table.build(
        "cities",
        "cities",
        ["city_id", "city"],
        [["10", "Paris"], ["11", "Madrid"], ["12", "New York"]],
    ),
]

# A scripted generator stands in for a purpose-writing model. Responses are
# consumed in sorted table-id order, so cities comes first.
generator = ScriptedGenerator(
    responses=[
        "Reference list of cities keyed by city_id.",
        "Museum directory with a city_id link to the cities table.",
    ]
)
ledger = TokenLedger()

# The store lives in a file: each new purpose is journaled as it arrives and
# the journal is compacted into enriched.json at the end, so a rerun pays for
# no purpose twice. The ledger records the tokens of every purpose call.
workdir = Path(tempfile.mkdtemp())
store = EnrichmentStore(workdir / "enriched.json")
enrich_tables(tables, generator, store=store, ledger=ledger)
for table_id in sorted(store.texts()):
    record = store.get(table_id)
    print(f"{table_id}: purpose={record.purpose!r}")
print("\nindexed text for museums:")
print(store.get("museums").text)
print("\ntokens spent on purposes:", ledger.stage_totals())

# The index embeds each enriched text once. Saving and loading round-trips
# through a single .npz file and refuses to load under a different embedder.
embedder = HashingEmbedder(dimension=128)
index = DenseIndex.build(store.texts(), embedder)
index_path = workdir / "index.npz"
index.save(index_path)
index = DenseIndex.load(index_path, expected_backend_id=embedder.backend_id)

# The hashing embedder is a deterministic stand-in, not a semantic model, so
# queries that reuse the table's own words rank sensibly and little else does.
for query in ["reference list of cities", "which city is the Louvre in"]:
    hits = index.search(embedder.embed(query), k=2)
    print(f"\n{query!r}")
    for table_id, score in hits:
        print(f"  {table_id}: cosine {score:.3f}")
