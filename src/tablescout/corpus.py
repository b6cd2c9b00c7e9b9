"""Corpus ingestion, open-book pooling, and Markdown serialization.

Tables from heterogeneous sources (CSV directories, SQLite files) are pooled
into a single corpus with no source identifiers in any retrieval-facing text.
Name conflicts are resolved deterministically with ``__k`` suffixes, and each
table can be serialized to the 5-row Markdown snapshot used by the dense index
and the selection prompt.
"""

from __future__ import annotations

import csv
import hashlib
import sqlite3
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .artifacts import FORMAT_VERSION, read_artifact, require, write_json
from .errors import CorpusError

#: Distinguished marker for missing cells; distinct from the empty string.
NULL = None

#: Bumped when value normalization semantics change. Not recorded in any
#: artifact yet, so a built cache does not know the version it used.
NORMALIZATION_VERSION = 1

DEFAULT_SAMPLE_ROWS = 5
DEFAULT_SEED = 42


def normalize_value(value: str) -> str:
    """Normal form used for all value comparisons: trimmed and case-folded."""
    return value.strip().casefold()


@dataclass(frozen=True)
class Column:
    """A named table column with its full ordered value list.

    ``values`` holds one entry per table row; missing cells are ``NULL``
    (``None``), which is distinct from the empty string.
    """

    table_name: str
    name: str
    position: int
    values: tuple[str | None, ...]

    def non_null_values(self) -> list[str]:
        """Normalized non-NULL values, in row order."""
        return [normalize_value(v) for v in self.values if v is not None]


@dataclass(frozen=True)
class Table:
    """An immutable relational table with ordered columns."""

    id: str
    name: str
    columns: tuple[Column, ...]
    row_count: int

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for pos, col in enumerate(self.columns):
            if col.position != pos:
                raise CorpusError(
                    f"table {self.name!r}: column {col.name!r} at position "
                    f"{col.position}, expected {pos}"
                )
            if len(col.values) != self.row_count:
                raise CorpusError(
                    f"table {self.name!r}: column {col.name!r} has "
                    f"{len(col.values)} values, expected {self.row_count}"
                )
            if col.name in seen:
                raise CorpusError(f"table {self.name!r}: duplicate column {col.name!r}")
            seen.add(col.name)

    @classmethod
    def build(
        cls,
        table_id: str,
        name: str,
        column_names: Sequence[str],
        rows: Sequence[Sequence[str | None]],
    ) -> Table:
        """Construct a table from row-major data."""
        columns = tuple(
            Column(
                table_name=name,
                name=col_name,
                position=pos,
                values=tuple(row[pos] for row in rows),
            )
            for pos, col_name in enumerate(column_names)
        )
        return cls(id=table_id, name=name, columns=columns, row_count=len(rows))

    def column_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    def row(self, index: int) -> tuple[str | None, ...]:
        return tuple(c.values[index] for c in self.columns)


@dataclass(frozen=True)
class TableCorpus:
    """A pooled, immutable table collection.

    ``provenance`` maps table id to its original source label. It exists for
    audit only and must never leak into retrieval-facing text.
    """

    tables: tuple[Table, ...]
    provenance: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        by_id = {t.id: t for t in self.tables}
        if len(by_id) != len(self.tables):
            raise CorpusError("table ids are not unique across the corpus")
        object.__setattr__(self, "_by_id", by_id)

    def __len__(self) -> int:
        return len(self.tables)

    def __iter__(self):
        return iter(self.tables)

    def get(self, table_id: str) -> Table:
        return self._by_id[table_id]

    def ids(self) -> tuple[str, ...]:
        return tuple(t.id for t in self.tables)


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------


def _normalize_cell(raw: str) -> str | None:
    """A CSV cell trimmed; an empty one is NULL."""
    text = raw.strip()
    return text if text else NULL


def _safe_table_name(name: str) -> str:
    # "|" is reserved by the cache pair-key format; map it to a broken bar.
    return name.strip().replace("|", "¦")


def _load_csv_table(path: Path) -> Table:
    try:
        # utf-8-sig drops a byte-order mark, which would otherwise stick to
        # the first header name
        with path.open(newline="", encoding="utf-8-sig") as handle:
            reader = csv.reader(handle)
            try:
                header = next(reader)
            except StopIteration:
                raise CorpusError(f"{path}: missing header row") from None
            header = [h.strip() for h in header]
            rows: list[list[str | None]] = []
            for line_no, raw in enumerate(reader, start=2):
                if len(raw) != len(header):
                    raise CorpusError(
                        f"{path}:{line_no}: row has {len(raw)} cells, "
                        f"header has {len(header)}"
                    )
                rows.append([_normalize_cell(c) for c in raw])
    except OSError as exc:
        raise CorpusError(f"unreadable file {path}: {exc}") from exc
    name = _safe_table_name(path.stem)
    return Table.build(table_id=name, name=name, column_names=header, rows=rows)


def _sqlite_cell(value: object) -> str | None:
    if value is None:
        return NULL
    if isinstance(value, bytes):
        return value.hex()
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value).strip()


def _load_sqlite_file(path: Path) -> list[Table]:
    try:
        conn = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
    except sqlite3.Error as exc:
        raise CorpusError(f"unreadable database {path}: {exc}") from exc
    try:
        names = [
            row[0]
            for row in conn.execute(
                "SELECT name FROM sqlite_master WHERE type='table' "
                "AND name NOT LIKE 'sqlite_%' ORDER BY name"
            )
        ]
        tables = []
        for raw_name in names:
            quoted = raw_name.replace('"', '""')
            cur = conn.execute(f'SELECT * FROM "{quoted}"')
            header = [d[0] for d in cur.description]
            rows = [[_sqlite_cell(v) for v in row] for row in cur.fetchall()]
            name = _safe_table_name(raw_name)
            tables.append(
                Table.build(table_id=name, name=name, column_names=header, rows=rows)
            )
        return tables
    except sqlite3.Error as exc:
        raise CorpusError(f"failed reading {path}: {exc}") from exc
    finally:
        conn.close()


def load_tables(source_path: str | Path, format: str = "csv-dir") -> list[Table]:
    """Load all tables from one source.

    ``format`` is ``"csv-dir"`` (a directory of CSV files with header rows,
    each named after its file's stem) or ``"sqlite-file"`` (a single SQLite
    database file). Cell values are trimmed; empty CSV cells become the NULL
    marker.
    """
    path = Path(source_path)
    if not path.exists():
        raise CorpusError(f"source path does not exist: {path}")
    if format == "csv-dir":
        if not path.is_dir():
            raise CorpusError(f"csv-dir source is not a directory: {path}")
        return [_load_csv_table(csv_path) for csv_path in sorted(path.glob("*.csv"))]
    if format == "sqlite-file":
        if not path.is_file():
            raise CorpusError(f"sqlite-file source is not a file: {path}")
        return _load_sqlite_file(path)
    raise CorpusError(f"unknown source format: {format!r}")


# ---------------------------------------------------------------------------
# Pooling
# ---------------------------------------------------------------------------


def _rename_with_suffix(base: str, taken: set[str]) -> str:
    k = 2
    while f"{base}__{k}" in taken:
        k += 1
    return f"{base}__{k}"


def _retitled(table: Table, new_name: str) -> Table:
    columns = tuple(
        Column(table_name=new_name, name=c.name, position=c.position, values=c.values)
        for c in table.columns
    )
    return Table(id=new_name, name=new_name, columns=columns, row_count=table.row_count)


def pool_corpora(corpora: Iterable[tuple[str, Sequence[Table]]]) -> TableCorpus:
    """Merge per-source table lists into one open-book corpus.

    Sources are processed in sorted label order so rename assignment is
    deterministic under input reordering. The first table keeps its name;
    later tables with the same name are renamed ``name__2``, ``name__3``, ...
    regardless of whether their column sequences match. Source labels are kept
    only in the provenance map.
    """
    taken: set[str] = set()
    tables: list[Table] = []
    provenance: dict[str, str] = {}
    for label, source_tables in sorted(corpora, key=lambda item: item[0]):
        for table in source_tables:
            name = _safe_table_name(table.name)
            if name in taken:
                name = _rename_with_suffix(name, taken)
            taken.add(name)
            pooled = _retitled(table, name)
            tables.append(pooled)
            provenance[pooled.id] = label
    return TableCorpus(tables=tuple(tables), provenance=provenance)


# ---------------------------------------------------------------------------
# Sampling and Markdown serialization
# ---------------------------------------------------------------------------


def sample_rows(table: Table, n: int = DEFAULT_SAMPLE_ROWS, seed: int = DEFAULT_SEED) -> list[int]:
    """Draw ``min(n, row_count)`` distinct row indices, ascending.

    The draw is uniform without replacement and a pure function of
    ``(table.id, seed, n)``: the generator is seeded from a stable hash of the
    table id and the seed, independent of process state.
    """
    if n < 0:
        raise ValueError("sample size must be nonnegative")
    count = min(n, table.row_count)
    if count == 0:
        return []
    digest = hashlib.blake2b(f"{seed}|{table.id}".encode("utf-8"), digest_size=16).digest()
    rng = np.random.default_rng(np.frombuffer(digest, dtype=np.uint64))
    picked = rng.choice(table.row_count, size=count, replace=False)
    return sorted(int(i) for i in picked)


# every character str.splitlines() breaks on, written as its escape, so that
# each grid row stays one line
_LINE_BREAKS = str.maketrans({c: repr(c)[1:-1] for c in "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"})


def _escape_cell(value: str | None) -> str:
    if value is None:
        return ""
    value = value.replace("|", "\\|")
    # line breaks are unprintable; the check spares the slower translate
    return value if value.isprintable() else value.translate(_LINE_BREAKS)


def markdown_grid(table: Table, sample: Sequence[int]) -> str:
    """The pipe-table part of the serialization: header, alignment row, data rows."""
    for idx in sample:
        if idx < 0 or idx >= table.row_count:
            raise CorpusError(f"sample index {idx} out of range for {table.name!r}")
    header = "| " + " | ".join(_escape_cell(c.name) for c in table.columns) + " |"
    align = "|" + "|".join("-------:" for _ in table.columns) + "|"
    lines = [header, align]
    for idx in sample:
        cells = (_escape_cell(v) for v in table.row(idx))
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)


def serialize_markdown(table: Table, sample: Sequence[int]) -> str:
    """Serialize a table to its Markdown snapshot.

    Layout: a ``Table name:`` line, an ``Example table content:`` line, then
    the pipe table with one row per sampled index. NULL cells render as empty,
    cell-internal pipes are escaped as ``\\|`` and line breaks as ``\\n``,
    ``\\r`` and so on.
    """
    return f"Table name: {table.name}\nExample table content:\n{markdown_grid(table, sample)}"


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def save_corpus(corpus: TableCorpus, path: str | Path) -> None:
    payload = {
        "version": FORMAT_VERSION,
        "tables": [
            {
                "id": t.id,
                "name": t.name,
                "columns": list(t.column_names()),
                "rows": [list(t.row(i)) for i in range(t.row_count)],
                "source": corpus.provenance.get(t.id, ""),
            }
            for t in corpus.tables
        ],
    }
    write_json(path, payload)


def load_corpus(path: str | Path) -> TableCorpus:
    what = "corpus file"
    data = read_artifact(path, what)
    tables = []
    provenance = {}
    for entry in require(data, "tables", path, what, list):
        table_id = require(entry, "id", path, what, str)
        columns = require(entry, "columns", path, what, list)
        rows = require(entry, "rows", path, what, list)
        for number, row in enumerate(rows, start=1):
            if not isinstance(row, list) or len(row) != len(columns):
                raise CorpusError(
                    f"malformed {what} {path}: table {table_id!r} row {number} "
                    f"is not a list of {len(columns)} cells, one per column"
                )
        tables.append(
            Table.build(
                table_id=table_id,
                name=require(entry, "name", path, what, str),
                column_names=columns,
                rows=rows,
            )
        )
        provenance[table_id] = entry.get("source", "")
    return TableCorpus(tables=tuple(tables), provenance=provenance)
