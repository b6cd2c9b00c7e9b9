"""Join-compatibility scoring between tables, and the pairwise score cache.

A column pair is a plausible join only when at least one side is a key
(unique non-NULL values) and the smaller side's distinct values are a subset
of the larger's. Such a pair scores its value overlap, the size ratio of the
two sets, blended with header-name agreement (exact match plus embedding
similarity); a table pair's compatibility is its best column pair's score.
Scores are symmetric: every pair is scored with the tables in sorted-id order.

Columns are profiled together (:func:`profile_columns`), in two steps. Each
is read once into a :class:`ColumnProfile` (its header text ``table.column``,
distinct normalized values, key flag and name key). Value blocking then
finds every column pair that can be valid: a contained side's values all
occur in the other side, its rarest value among them. One count of how many
columns hold each value picks every column's rarest value, an index from
just those values to the columns holding them is built, and for each column
the columns holding its rarest value that have at least as many distinct
values and make the pair have a key side are its blocked partners. This is
exact, unary inclusion-dependency blocking (De Marchi, Lopes & Petit, J.
Intell. Inf. Syst. 32(1), 2009); the worst case, a value present in every
column, blocks every pair. Last, only the headers of the columns that a
blocked pair names are embedded, in one batch, and their profiles take the
vector and its norm. Every other column's header is never embedded: a pair
it is part of is invalid, and an invalid pair scores 0.0 before the cosine.

The scorer reads these profiles only, :func:`column_pair_score` two of them
and :func:`table_compatibility` two tables' lists of them. :func:`build_cache`
scores only the blocked column pairs.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from dataclasses import dataclass, fields, replace
from itertools import chain, product
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .artifacts import read_artifact, require, write_artifact
from .corpus import Column, Table, TableCorpus
from .errors import CorpusError
from .services import Embedder, cosine_of_norms

JOINABILITY_THRESHOLD = 0.5


# ---------------------------------------------------------------------------
# Column profiles and the column-pair score
# ---------------------------------------------------------------------------


def _name_key(name: str) -> str:
    return name.casefold().replace("-", "_").replace(" ", "_")


def header_text(table: Table, column: Column) -> str:
    """The text embedded for a column header: ``table.column``."""
    return f"{table.name}.{column.name}"


@dataclass(frozen=True)
class ColumnProfile:
    """Everything the scorer reads of one column, computed once.

    ``header`` is the column's :func:`header_text`. ``values`` is the set of
    distinct normalized non-NULL values. ``is_key`` holds when there is at
    least one non-NULL value and no two are equal after normalization: an
    all-NULL column gives no evidence of being a key. ``name_key`` is the
    header name up to case and -/space vs underscore. ``vector`` is the
    embedding of ``header`` and ``norm`` its norm, as ``cosine`` computes
    it; :func:`profile_columns` sets them (:meth:`with_vector`) only for a
    column that some blocked pair names, and leaves every other column at
    None and 0.0.
    """

    header: str
    values: frozenset[str]
    is_key: bool
    name_key: str
    vector: np.ndarray | None = None
    norm: float = 0.0

    @classmethod
    def of(cls, table: Table, column: Column) -> "ColumnProfile":
        """The profile of ``column`` of ``table``, without a header vector."""
        cells = column.values
        nulls = cells.count(None)
        non_null = [v for v in cells if v is not None] if nulls else cells
        # normalize_value over every cell in one pass: strip, then casefold
        values = frozenset(map(str.casefold, map(str.strip, non_null)))
        return cls(
            header=header_text(table, column),
            values=values,
            is_key=bool(values) and len(values) == len(cells) - nulls,
            name_key=_name_key(column.name),
        )

    def with_vector(self, vector: np.ndarray) -> "ColumnProfile":
        """This profile holding ``vector`` as its header's embedding."""
        return replace(self, vector=vector, norm=float(np.linalg.norm(vector)))


def _profiled(
    tables: Sequence[Table], embedder: Embedder
) -> tuple[dict[str, list[ColumnProfile]], dict[tuple[str, str], set[tuple[int, int]]]]:
    """The column profiles of :func:`profile_columns` and the blocked pairs
    (:func:`_blocked_pairs`) found on their values."""
    profiles = {t.id: [ColumnProfile.of(t, c) for c in t.columns] for t in tables}
    blocked = _blocked_pairs(profiles)
    paired = set()
    for (left, right), pairs in blocked.items():
        for pos_left, pos_right in pairs:
            paired.add((left, pos_left))
            paired.add((right, pos_right))
    wanted = [(t.id, pos) for t in tables for pos in range(len(t.columns)) if (t.id, pos) in paired]
    if wanted:
        vectors = embedder.embed_many([profiles[tid][pos].header for tid, pos in wanted])
        for (tid, pos), vector in zip(wanted, vectors):
            profiles[tid][pos] = profiles[tid][pos].with_vector(vector)
    return profiles, blocked


def profile_columns(tables: Sequence[Table], embedder: Embedder) -> dict[str, list[ColumnProfile]]:
    """The column profiles of each table, by table id, in column order.

    Every column's values are profiled first; then the headers, ``table.column``
    with the table's name, of just the columns that a blocked pair among
    ``tables`` names are embedded in one batch, in table then column order,
    and no call is made when there are none. A valid pair of these columns
    is always blocked, so both its profiles hold a vector; profiles from
    separate calls may not, and :func:`column_pair_score` refuses such a
    valid pair.
    """
    return _profiled(tables, embedder)[0]


def column_pair_score(pa: ColumnProfile, pb: ColumnProfile) -> float:
    """Join score of two cross-table column profiles, in [0, 1].

    The pair is valid only when a side is a key and the smaller distinct
    value set is a non-empty subset of the larger; an invalid pair scores
    0.0. A valid pair scores ``0.5*overlap + 0.5*(0.5*sem + 0.5*ex)``: the
    size ratio ``len(smaller) / len(larger)`` (their Jaccard), the header-
    embedding cosine clamped at zero, and exact header-name agreement. A
    valid pair with a side that holds no header vector raises ``ValueError``
    naming both columns.
    """
    if not (pa.is_key or pb.is_key):
        return 0.0
    small, large = (pa.values, pb.values) if len(pa.values) <= len(pb.values) else (pb.values, pa.values)
    if not small or not small <= large:
        return 0.0
    if pa.vector is None or pb.vector is None:
        missing = pa.header if pa.vector is None else pb.header
        raise ValueError(
            f"valid column pair {pa.header!r}, {pb.header!r}: {missing!r} holds no header vector; "
            "profile both tables in one profile_columns call"
        )
    sem = max(0.0, cosine_of_norms(pa.vector, pb.vector, pa.norm, pb.norm))
    name = 0.5 * sem + 0.5 * (1.0 if pa.name_key == pb.name_key else 0.0)
    return 0.5 * (len(small) / len(large)) + 0.5 * name


# ---------------------------------------------------------------------------
# Table-level compatibility
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JoinEdge:
    """Best join between two tables; sides are held in sorted-id order."""

    score: float
    left_table: str
    left_column: str
    right_table: str
    right_column: str

    def oriented(self, first_table: str) -> tuple[str, str]:
        """(column in first_table, column in the other table)."""
        if first_table == self.left_table:
            return self.left_column, self.right_column
        if first_table == self.right_table:
            return self.right_column, self.left_column
        raise KeyError(f"{first_table!r} is not part of this edge")


#: the fields of a :class:`JoinEdge`, in the order a saved cache's rows hold them
_ROW_FIELDS = [field.name for field in fields(JoinEdge)]
_row = attrgetter(*_ROW_FIELDS)


def table_compatibility(
    ti: Table,
    tj: Table,
    profiles: Mapping[str, Sequence[ColumnProfile]],
    column_pairs: Iterable[tuple[int, int]] | None = None,
) -> JoinEdge | None:
    """Best-scoring plausible join between two tables, or None.

    Only the tables' column profiles, ``profiles[table id]``, are read. The
    argument order never matters: scoring always runs with the tables
    arranged by ascending id, and score ties resolve to the lowest column
    position pair in that arrangement. ``column_pairs``, position pairs in
    that arrangement, limits scoring to those pairs; :func:`build_cache`
    passes every pair that can be valid, so the result is the same.
    """
    if ti.id == tj.id:
        raise ValueError("table compatibility requires two distinct tables")
    a, b = (ti, tj) if ti.id < tj.id else (tj, ti)
    profiles_a, profiles_b = profiles[a.id], profiles[b.id]
    if column_pairs is None:
        column_pairs = product(range(len(profiles_a)), range(len(profiles_b)))
    best, best_a, best_b = 0.0, 0, 0
    for pos_a, pos_b in sorted(column_pairs):
        s = column_pair_score(profiles_a[pos_a], profiles_b[pos_b])
        if s > best:
            best, best_a, best_b = s, pos_a, pos_b
    if best == 0.0:
        return None
    return JoinEdge(
        score=best,
        left_table=a.id,
        left_column=a.columns[best_a].name,
        right_table=b.id,
        right_column=b.columns[best_b].name,
    )


# ---------------------------------------------------------------------------
# The pairwise cache
# ---------------------------------------------------------------------------


class CompatibilityCache:
    """All positive-score table pairs with their best join columns.

    Pairs scoring zero are simply absent; ``score`` returns 0.0 for them, for
    unknown ids, and for a table paired with itself.
    """

    def __init__(self, edges: Iterable[JoinEdge] = (), backend_id: str = ""):
        self._pairs: dict[tuple[str, str], JoinEdge] = {}
        self.backend_id = backend_id
        for edge in edges:
            self.add(edge)

    def add(self, edge: JoinEdge) -> None:
        if edge.left_table >= edge.right_table:
            raise ValueError("edge sides must be in ascending id order")
        # finite and positive; a cosine can round above 1.0, so no cap at 1
        if not 0.0 < edge.score <= sys.float_info.max:
            raise ValueError(f"score {edge.score!r} is not finite and positive")
        self._pairs[(edge.left_table, edge.right_table)] = edge

    def __len__(self) -> int:
        return len(self._pairs)

    def __iter__(self):
        return iter(self._pairs.values())

    def edge(self, ti: str, tj: str) -> JoinEdge | None:
        if ti == tj:
            return None
        key = (ti, tj) if ti < tj else (tj, ti)
        return self._pairs.get(key)

    def score(self, ti: str, tj: str) -> float:
        edge = self.edge(ti, tj)
        return edge.score if edge is not None else 0.0

    def save(self, path: str | Path) -> None:
        """One row per edge, its fields in declaration order, sorted by table pair."""
        edges = [list(_row(edge)) for _, edge in sorted(self._pairs.items())]
        write_artifact(path, {"edges": edges}, self.backend_id)

    @classmethod
    def load(cls, path: str | Path, expected_backend_id: str | None = None) -> "CompatibilityCache":
        """The cache saved at ``path``. A row that is not four strings after a
        number, that :meth:`add` refuses or whose table pair an earlier row
        holds raises :class:`CorpusError` naming the file and the row."""
        data = read_artifact(path, "compatibility cache", expected_backend_id)
        cache = cls(backend_id=data.get("backend_id", ""))
        for index, row in enumerate(require(data, "edges", path, "compatibility cache", list)):
            where = f"malformed compatibility cache {path}: edge {index}"
            if not (
                isinstance(row, list)
                and len(row) == len(_ROW_FIELDS)
                and isinstance(row[0], (int, float))
                and not isinstance(row[0], bool)
                and all(isinstance(value, str) for value in row[1:])
            ):
                raise CorpusError(f"{where} is not a number and four strings, {_ROW_FIELDS}")
            size = len(cache)
            try:
                cache.add(JoinEdge(*row))
            except ValueError as exc:
                raise CorpusError(f"{where}: {exc}") from None
            if len(cache) == size:
                raise CorpusError(f"{where} repeats the table pair of an earlier edge")
        return cache


def _blocked_pairs(
    profiles: Mapping[str, Sequence[ColumnProfile]],
) -> dict[tuple[str, str], set[tuple[int, int]]]:
    """Every column pair that can be valid, grouped by table pair.

    Keys are table-id pairs in ascending order, values the column position
    pairs in that arrangement. A valid pair has a non-empty side ``p`` whose
    values all occur in the other side ``q``, with ``q`` holding at least as
    many distinct values; so ``q`` holds ``p``'s rarest value, the one the
    fewest columns hold (ties to the least value), and only the columns
    holding some column's rarest value are looked up.
    """
    columns = [(tid, pos, p) for tid, table in profiles.items() for pos, p in enumerate(table) if p.values]
    holders = Counter(chain.from_iterable(p.values for _, _, p in columns))
    rarest = [min(zip(map(holders.__getitem__, p.values), p.values))[1] for _, _, p in columns]
    picked = set(rarest)
    postings: dict[str, list[tuple[str, int, ColumnProfile]]] = defaultdict(list)
    for column in columns:
        for value in picked.intersection(column[2].values):
            postings[value].append(column)
    blocked: dict[tuple[str, str], set[tuple[int, int]]] = defaultdict(set)
    for (tid, pos, p), value in zip(columns, rarest):
        for other_id, other_pos, q in postings[value]:
            if other_id != tid and len(q.values) >= len(p.values) and (p.is_key or q.is_key):
                if tid < other_id:
                    blocked[(tid, other_id)].add((pos, other_pos))
                else:
                    blocked[(other_id, tid)].add((other_pos, pos))
    return blocked


def build_cache(corpus: TableCorpus, embedder: Embedder) -> CompatibilityCache:
    """Score every table pair that value blocking can reach.

    Each column is profiled once (:func:`profile_columns`), and value
    blocking runs once on the profiles' values: one count of how many
    columns hold each value gives each column its rarest value, and only
    the columns holding one of those are looked up (:func:`_blocked_pairs`).
    Every valid column pair is among the pairs found, and only their
    columns' headers are embedded, in one batch. Each table pair with such
    a column pair is scored by :func:`table_compatibility` over those column
    pairs alone; every other pair has no valid column pair and scores zero.
    """
    tables = sorted(corpus, key=lambda t: t.id)
    profiles, blocked = _profiled(tables, embedder)
    by_id = {t.id: t for t in tables}
    cache = CompatibilityCache(backend_id=embedder.backend_id)
    for left, right in sorted(blocked):
        edge = table_compatibility(by_id[left], by_id[right], profiles, blocked[(left, right)])
        if edge is not None:
            cache.add(edge)
    return cache


# ---------------------------------------------------------------------------
# Evaluating a cache against gold join annotations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GoldJoin:
    """One annotated table pair: joinable or not, and optionally how."""

    table_a: str
    table_b: str
    joinable: bool
    gold_columns: tuple[str, str] | None = None  # (column of table_a, column of table_b)


def gold_joins_from_records(records: object, path: str | Path | None = None) -> list[GoldJoin]:
    """Parse gold annotations: a list of {table_a, table_b, joinable, gold_columns?}.

    ``table_a`` and ``table_b`` must be strings, ``joinable`` a bool and
    ``gold_columns``, unless absent or null, a list of two strings. A record
    must name two tables, and a pair that an earlier record annotates, in
    either order, is refused. Anything else, or no record at all, raises
    :class:`CorpusError` naming ``path`` and the record's index.
    """
    what = "gold joins"
    source = "" if path is None else f"{path} "
    if not isinstance(records, list):
        raise CorpusError(f"{what} {source}must be a list of records")
    if not records:
        raise CorpusError(f"{what} {source}holds no records")
    gold = []
    annotated: dict[frozenset[str], int] = {}
    for index, record in enumerate(records):
        where = f"{source}record {index}"
        table_a = require(record, "table_a", where, what, str)
        table_b = require(record, "table_b", where, what, str)
        joinable = require(record, "joinable", where, what, bool)
        columns = record.get("gold_columns")
        if columns is not None:
            if not isinstance(columns, list) or len(columns) != 2 or not all(isinstance(c, str) for c in columns):
                raise CorpusError(f"malformed {what} {where}: gold_columns must list two column names")
            columns = (columns[0], columns[1])
        if table_a == table_b:
            raise CorpusError(f"malformed {what} {where}: table {table_a!r} is named twice")
        pair = frozenset((table_a, table_b))
        if pair in annotated:
            raise CorpusError(f"malformed {what} {where}: pair {table_a!r}, {table_b!r} repeats record {annotated[pair]}")
        annotated[pair] = index
        gold.append(GoldJoin(table_a, table_b, joinable, columns))
    return gold


def evaluate_cache(
    cache: CompatibilityCache,
    gold: Sequence[GoldJoin],
    corpus: TableCorpus,
) -> dict[str, float]:
    """Compare cached scores against gold pair annotations.

    Joinability accuracy treats score > ``JOINABILITY_THRESHOLD`` as the
    joinable prediction.
    Column accuracy, over gold-joinable pairs with annotated columns, checks
    that the cached best join names the same column pair (side order
    ignored). The score error averages |score - label| with the label 1 or 0,
    and an absent pair scoring 0. An annotation that names a table or column
    ``corpus`` lacks raises :class:`CorpusError`, so no pair goes unscored.
    """
    if not gold:
        raise ValueError("gold annotations must be non-empty")
    known = set(corpus.ids())
    for g in gold:
        missing = {g.table_a, g.table_b} - known
        if missing:
            raise CorpusError(f"gold annotation references unknown tables: {sorted(missing)}")
        if g.gold_columns is not None:
            for tid, col in zip((g.table_a, g.table_b), g.gold_columns):
                if col not in corpus.get(tid).column_names():
                    raise CorpusError(f"gold annotation references unknown column {tid}.{col}")
    join_hits = 0
    col_total = 0
    col_hits = 0
    err_total = 0.0
    for g in gold:
        cs = cache.score(g.table_a, g.table_b)
        if (cs > JOINABILITY_THRESHOLD) == g.joinable:
            join_hits += 1
        if g.joinable and g.gold_columns is not None:
            col_total += 1
            edge = cache.edge(g.table_a, g.table_b)
            if edge is not None and edge.oriented(g.table_a) == g.gold_columns:
                col_hits += 1
        err_total += abs(cs - (1.0 if g.joinable else 0.0))
    return {
        "joinability_accuracy": join_hits / len(gold),
        "column_accuracy": (col_hits / col_total) if col_total else 0.0,
        "avg_score_error": err_total / len(gold),
        "pairs": float(len(gold)),
        "joinable_pairs": float(sum(1 for g in gold if g.joinable)),
    }
