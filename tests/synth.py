"""Synthetic corpora and an independent join-score oracle for tests.

The oracle re-derives every signal (uniqueness, containment, overlap, header
agreement) directly from column values, without touching the library's
scoring code, so cache results can be checked against a second opinion.
"""

from __future__ import annotations

import numpy as np

from tablescout import Table, TableCorpus
from tablescout.services import cosine

COLUMN_NAME_POOL = [
    "id",
    "code",
    "name",
    "value",
    "ref_id",
    "cat",
    "x",
    "y",
    "key",
    "label",
]


class MappedEmbedder:
    """Embedder returning fixed vectors per text, for exact-score fixtures."""

    def __init__(self, mapping, dimension=None):
        self.mapping = {k: np.asarray(v, dtype=np.float64) for k, v in mapping.items()}
        self.dimension = dimension if dimension is not None else len(next(iter(self.mapping.values())))
        self.backend_id = "mapped"

    def embed(self, text):
        return self.mapping[text]

    def embed_many(self, texts):
        return np.array([self.mapping[text] for text in texts]).reshape(len(texts), self.dimension)


# ---------------------------------------------------------------------------
# Oracle
# ---------------------------------------------------------------------------


def _norm(value: str) -> str:
    return value.strip().casefold()


def _name_key(name: str) -> str:
    return name.casefold().replace("-", "_").replace(" ", "_")


def oracle_pair_score(table_a, col_a, table_b, col_b, embedder) -> float:
    """Join score of ``col_a`` of ``table_a`` and ``col_b`` of ``table_b``."""
    va = [_norm(v) for v in col_a.values if v is not None]
    vb = [_norm(v) for v in col_b.values if v is not None]
    ua = 1 if va and len(set(va)) == len(va) else 0
    ub = 1 if vb and len(set(vb)) == len(vb) else 0
    sa, sb = set(va), set(vb)
    sub = 1 if sa and sb and (sa <= sb or sb <= sa) else 0
    valid = 1 if sub == 1 and (ua == 1 or ub == 1) else 0
    if valid == 0:
        return 0.0
    union = sa | sb
    jac = len(sa & sb) / len(union) if union else 0.0
    ex = 1.0 if _name_key(col_a.name) == _name_key(col_b.name) else 0.0
    sem = max(
        0.0,
        cosine(
            embedder.embed(f"{table_a.name}.{col_a.name}"),
            embedder.embed(f"{table_b.name}.{col_b.name}"),
        ),
    )
    name = 0.5 * sem + 0.5 * ex
    return 0.5 * jac + 0.5 * name


def oracle_table_compatibility(ta: Table, tb: Table, embedder):
    """(score, (column of lower-id table, column of higher-id table)) or None."""
    a, b = (ta, tb) if ta.id < tb.id else (tb, ta)
    best = None
    for pa, ca in enumerate(a.columns):
        for pb, cb in enumerate(b.columns):
            s = oracle_pair_score(a, ca, b, cb, embedder)
            if s <= 0.0:
                continue
            key = (-s, pa, pb)
            if best is None or key < best[0]:
                best = (key, ca.name, cb.name, s)
    if best is None:
        return None
    return best[3], (best[1], best[2])


def oracle_has_valid_pair(ta: Table, tb: Table) -> bool:
    for ca in ta.columns:
        for cb in tb.columns:
            va = [_norm(v) for v in ca.values if v is not None]
            vb = [_norm(v) for v in cb.values if v is not None]
            ua = va and len(set(va)) == len(va)
            ub = vb and len(set(vb)) == len(vb)
            sa, sb = set(va), set(vb)
            if sa and sb and (sa <= sb or sb <= sa) and (ua or ub):
                return True
    return False


# ---------------------------------------------------------------------------
# Random corpora
# ---------------------------------------------------------------------------


def _random_column_values(rng: np.random.Generator, n_rows: int) -> list[str | None]:
    kind = rng.choice(["unique", "small", "mid", "nullable"])
    if kind == "unique":
        base = int(rng.integers(0, 3)) * 50
        values = [str(base + i) for i in rng.permutation(n_rows)]
    elif kind == "small":
        values = [str(int(v)) for v in rng.integers(0, 8, size=n_rows)]
    elif kind == "mid":
        values = [str(int(v)) for v in rng.integers(0, 60, size=n_rows)]
    else:
        values = [
            None if rng.random() < 0.3 else str(int(v))
            for v in rng.integers(0, 8, size=n_rows)
        ]
    return list(values)


def random_table(rng: np.random.Generator, table_id: str, max_cols: int = 8, max_rows: int = 200) -> Table:
    n_cols = int(rng.integers(1, max_cols + 1))
    n_rows = int(rng.integers(0, max_rows + 1))
    picked = rng.choice(len(COLUMN_NAME_POOL), size=n_cols, replace=False)
    names = [COLUMN_NAME_POOL[i] for i in picked]
    columns = [_random_column_values(rng, n_rows) for _ in range(n_cols)]
    rows = [[columns[c][r] for c in range(n_cols)] for r in range(n_rows)]
    return Table.build(table_id, table_id, names, rows)


def random_corpus(rng: np.random.Generator, max_tables: int = 6, max_cols: int = 8, max_rows: int = 200) -> TableCorpus:
    n = int(rng.integers(2, max_tables + 1))
    tables = tuple(random_table(rng, f"t{i}", max_cols, max_rows) for i in range(n))
    return TableCorpus(tables=tables, provenance={})


# ---------------------------------------------------------------------------
# Planted key-foreign-key corpora
# ---------------------------------------------------------------------------


def planted_fk_corpus(rng: np.random.Generator):
    """Two tables joined by a planted key: unique parent column, child subset
    with overlap >= 0.5 and the same header name; every other column pair is
    made incompatible by disjoint per-table value prefixes.

    Returns (corpus, parent_id, child_id, column_name).
    """
    join_col = "record_id"
    n_parent = int(rng.integers(20, 61))
    parent_keys = [str(i) for i in rng.permutation(n_parent)]

    min_subset = (n_parent + 1) // 2
    subset_size = int(rng.integers(min_subset, n_parent + 1))
    chosen = rng.choice(n_parent, size=subset_size, replace=False)
    n_child = int(rng.integers(subset_size, subset_size * 2 + 1))
    # cover every chosen key at least once, then repeat freely
    child_refs = [str(int(chosen[i % subset_size])) for i in range(n_child)]
    rng.shuffle(child_refs)

    n_parent_extra = int(rng.integers(1, 4))
    n_child_extra = int(rng.integers(1, 4))
    parent_cols = [join_col] + [f"p_col{i}" for i in range(n_parent_extra)]
    child_cols = [join_col] + [f"c_col{i}" for i in range(n_child_extra)]

    parent_rows = [
        [parent_keys[r]] + [f"p_{i}_{int(rng.integers(0, 6))}" for i in range(n_parent_extra)]
        for r in range(n_parent)
    ]
    child_rows = [
        [child_refs[r]] + [f"c_{i}_{int(rng.integers(0, 6))}" for i in range(n_child_extra)]
        for r in range(n_child)
    ]
    parent = Table.build("parent", "parent", parent_cols, parent_rows)
    child = Table.build("child_events", "child_events", child_cols, child_rows)
    corpus = TableCorpus(tables=(parent, child), provenance={})
    return corpus, "parent", "child_events", join_col
