"""Score join compatibility between table pairs and cache the results.

A pair of columns is a join candidate only when one side holds unique values
and one side's value set contains the other's. Candidates are then ranked by
a blend of value overlap and header similarity. The best column pair per
table pair lands in a reusable cache.
"""

import tempfile
from pathlib import Path

from tablescout import (
    CompatibilityCache,
    HashingEmbedder,
    Table,
    TableCorpus,
    build_cache,
    column_pair_score,
)
from tablescout.compatibility import profile_columns

orders = Table.build(
    "orders",
    "orders",
    ["order_id", "customer_id", "total"],
    [
        ["100", "1", "9.50"],
        ["101", "2", "12.00"],
        ["102", "1", "3.25"],
        ["103", "4", "8.00"],
    ],
)
customers = Table.build(
    "customers",
    "customers",
    ["customer_id", "name"],
    [["1", "Ada"], ["2", "Bo"], ["3", "Cy"], ["4", "Di"]],
)
payments = Table.build(
    "payments",
    "payments",
    ["pay_code", "memo"],
    [["a1", "wire"], ["a2", "card"]],
)

embedder = HashingEmbedder(dimension=128)

# Profile the columns of two tables: distinct values and key flag of each,
# then the embedded header, "orders.customer_id" and so on, named after each
# table, of just the columns value blocking pairs: here the two customer_id
# columns. The other headers are never embedded.
profiles = profile_columns([orders, customers], embedder)

# Score one column pair directly. orders.customer_id values are a subset of
# the unique customers.customer_id values, so the pair is valid and scores
# 0.5 * value jaccard + 0.5 * (0.5 * header cosine + 0.5 * exact name match).
fk = profiles["orders"][1]
pk = profiles["customers"][0]
print(f"customer_id <-> customer_id: {column_pair_score(fk, pk):.3f}")

# Totals column against the key. No containment, so it scores zero, before
# any header vector is read: orders.total has none.
print(f"total <-> customer_id: {column_pair_score(profiles['orders'][2], pk)}")

corpus = TableCorpus(tables=(orders, customers, payments), provenance={})
cache = build_cache(corpus, embedder)
print(f"\ncache holds {len(cache)} pair(s) out of 3 possible")
for edge in cache:
    print(
        f"  {edge.left_table} <-> {edge.right_table}: "
        f"cs={edge.score:.3f} join on {edge.left_column}={edge.right_column}"
    )
# payments shares no values with anything, so it never appears.

# Round-trip through JSON. Loading checks the embedding backend id so a cache
# built under one embedder cannot silently serve another.
path = Path(tempfile.mkdtemp()) / "compat_cache.json"
cache.save(path)
reloaded = CompatibilityCache.load(path, expected_backend_id=embedder.backend_id)
print("reloaded cs(orders, customers):", reloaded.score("orders", "customers"))
