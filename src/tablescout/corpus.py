"""Corpus ingestion, open-book pooling, and Markdown serialization.

Tables from heterogeneous sources (CSV directories, SQLite files) are pooled
into a single corpus with no source identifiers in any retrieval-facing text.
Name conflicts are resolved deterministically with ``__k`` suffixes, and each
table can be serialized to the 5-row Markdown snapshot that the purpose prompt
shows; the dense index and the selection prompt show the same grid inside each
table's enriched text.

Tables are held column-major, and ingest and persistence work a whole column
at a time. Ingest transposes a source's rows with ``zip(*rows)`` and converts
each column with one ``map`` over its values; only a SQLite column that is
not all text is converted by a Python function per cell. ``corpus.json``
stores each column's values as one list, so a save writes them as they are
held and a load builds each column from its list, with no transpose either
way.
"""

from __future__ import annotations

import csv
import hashlib
import sqlite3
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence
from urllib.parse import quote

import numpy as np

from .artifacts import read_artifact, require, write_artifact
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
    (``None``), which is distinct from the empty string. A column's position
    is its index in :attr:`Table.columns`, and its table's name is held by
    the :class:`Table` alone, so a renamed table shares its columns.
    """

    name: str
    values: tuple[str | None, ...]


@dataclass(frozen=True)
class Table:
    """An immutable relational table with ordered columns.

    The data is held column-major: each :class:`Column` has exactly
    ``row_count`` values. :meth:`build` is the row-major constructor and
    rejects a row whose width differs from the header's. An id or name that
    is blank once stripped, which would name no table in a prompt, the index
    or the cache, raises :class:`CorpusError`.
    """

    id: str
    name: str
    columns: tuple[Column, ...]
    row_count: int

    def __post_init__(self) -> None:
        for field, value in (("id", self.id), ("name", self.name)):
            if not value.strip():
                raise CorpusError(f"table {field} {value!r} is blank")
        seen: set[str] = set()
        for col in self.columns:
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
        """Construct a table from row-major data.

        Every row must hold one cell per column name; a row of another width
        raises :class:`CorpusError` naming the table and the row (from 1).
        """
        width = len(column_names)
        ragged = _first_ragged(rows, width)
        if ragged:
            number, row = ragged
            raise CorpusError(
                f"table {name!r}: row {number} has {len(row)} cells, expected {width}"
            )
        return cls._from_columns(table_id, name, column_names, _transpose(rows, width), len(rows))

    @classmethod
    def _from_columns(
        cls,
        table_id: str,
        name: str,
        column_names: Sequence[str],
        columns: Iterable[tuple[str | None, ...]],
        row_count: int,
    ) -> Table:
        """Construct a table from column-major data, one value tuple per name."""
        built = tuple(map(Column, column_names, columns))
        return cls(id=table_id, name=name, columns=built, row_count=row_count)

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


def _first_ragged(
    rows: Sequence[Sequence[object]], width: int
) -> tuple[int, Sequence[object]] | None:
    """The first row not ``width`` cells wide, with its number from 1, or None."""
    if set(map(len, rows)) <= {width}:
        return None
    return next((i, r) for i, r in enumerate(rows, start=1) if len(r) != width)


def _transpose(rows: Sequence[Sequence[object]], width: int) -> Iterable[tuple]:
    """The ``width`` columns of equal-width ``rows``, each a tuple of values."""
    # zip(*rows) of no rows yields no columns at all
    return zip(*rows) if rows else [()] * width


#: Called as ``_EMPTY_TO_NULL(cell, cell)``: NULL for ``""``, else the cell.
_EMPTY_TO_NULL = {"": NULL}.get


def _csv_column(values: tuple[str, ...]) -> tuple[str | None, ...]:
    """A CSV column's cells trimmed; an empty one is NULL."""
    stripped = tuple(map(str.strip, values))
    # most columns hold no empty cell and need no second pass
    if "" not in stripped:
        return stripped
    return tuple(map(_EMPTY_TO_NULL, stripped, stripped))


@contextmanager
def _csv_reader(path: Path) -> Iterator:
    """Yield a csv reader over ``path``. A read, decode or csv error in the
    block raises :class:`CorpusError` naming the file, as ``path:line`` for
    a csv error."""
    try:
        # utf-8-sig drops a byte-order mark, which would otherwise stick to
        # the first header name
        with path.open(newline="", encoding="utf-8-sig") as handle:
            reader = csv.reader(handle)
            try:
                yield reader
            except csv.Error as exc:
                raise CorpusError(f"{path}:{reader.line_num}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CorpusError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    except OSError as exc:
        raise CorpusError(f"unreadable file {path}: {exc}") from exc


def _record_line(path: Path, number: int) -> int:
    """The file line on which record ``number`` (from 1) of a CSV file ends.

    Records and lines part where a quoted cell spans lines, so this reads the
    file again; only an error message needs it.
    """
    with _csv_reader(path) as reader:
        for _ in islice(reader, number):
            pass
        return reader.line_num


def _load_csv_table(path: Path) -> Table:
    try:
        path.stem.encode("utf-8")  # a name that is not UTF-8 decodes to lone surrogates
    except UnicodeEncodeError:
        raise CorpusError(f"{path.parent}: file name {path.name!r} is not UTF-8 text") from None
    with _csv_reader(path) as reader:
        records = list(reader)
    if not records:
        raise CorpusError(f"{path}: missing header row")
    width = len(records[0])
    ragged = _first_ragged(records, width)
    if ragged:
        number, raw = ragged
        line = _record_line(path, number)
        raise CorpusError(f"{path}:{line}: row has {len(raw)} cells, header has {width}")
    header = list(map(str.strip, records[0]))
    body = records[1:]
    columns = map(_csv_column, _transpose(body, width))
    name = path.stem.strip()
    try:
        return Table._from_columns(name, name, header, columns, len(body))
    except CorpusError as exc:
        raise CorpusError(f"{path}: {exc}") from None


def _sqlite_cell(value: object) -> str | None:
    if value is None:
        return NULL
    if isinstance(value, bytes):
        return value.hex()
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value).strip()


def _sqlite_column(values: tuple[object, ...]) -> tuple[str | None, ...]:
    """A fetched SQLite column as text; an all-text column is trimmed in one
    ``map``, any other converted cell by cell with :func:`_sqlite_cell`."""
    if set(map(type, values)) == {str}:
        return tuple(map(str.strip, values))
    return tuple(map(_sqlite_cell, values))


def connect_read_only(path: str | Path, **kwargs) -> sqlite3.Connection:
    """A read-only SQLite connection to the file at ``path``.

    The path is percent-encoded into the ``file:`` URI, so a ``#``, ``?`` or
    ``%`` in it names that file and not a fragment, a query or an escape.
    ``kwargs`` go to ``sqlite3.connect``.
    """
    uri = f"file:{quote(Path(path).as_posix())}?mode=ro"
    return sqlite3.connect(uri, uri=True, **kwargs)


def _load_sqlite_file(path: Path) -> list[Table]:
    try:
        conn = connect_read_only(path)
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
            rows = cur.fetchall()
            columns = map(_sqlite_column, _transpose(rows, len(header)))
            name = raw_name.strip()
            tables.append(Table._from_columns(name, name, header, columns, len(rows)))
        return tables
    except sqlite3.Error as exc:
        raise CorpusError(f"failed reading {path}: {exc}") from exc
    except CorpusError as exc:
        raise CorpusError(f"{path}: {exc}") from None
    finally:
        conn.close()


def load_tables(source_path: str | Path, format: str = "csv-dir") -> list[Table]:
    """Load all tables from one source.

    ``format`` is ``"csv-dir"`` (a directory of CSV files with header rows,
    each named after its file's stem) or ``"sqlite-file"`` (a single SQLite
    database file). A CSV file must be UTF-8 (a byte-order mark is dropped)
    with every record as wide as its header; otherwise :class:`CorpusError`
    names the file, and ``path:line`` where the csv module reports one.
    Cell values are trimmed; empty CSV cells become the NULL marker, while
    empty SQLite text stays ``""``. SQLite reals keep 12 significant digits
    and blobs become hex.
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
            name = table.name.strip()
            if name in taken:
                name = _rename_with_suffix(name, taken)
            taken.add(name)
            pooled = Table(id=name, name=name, columns=table.columns, row_count=table.row_count)
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
    table id and the seed, independent of process state. A table of at most
    ``n`` rows is sampled whole, as ``[0, 1, ..., row_count - 1]``, without
    building a generator: the sorted draw of every row can be nothing else.
    """
    if n < 0:
        raise ValueError("sample size must be nonnegative")
    count = min(n, table.row_count)
    if count == 0:
        return []
    if count == table.row_count:
        return list(range(count))
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


def serialize_markdown(table: Table, grid: str) -> str:
    """Serialize a table to its Markdown snapshot.

    Layout: a ``Table name:`` line, an ``Example table content:`` line, then
    ``grid``, which is ``markdown_grid(table, sample)``: the pipe table with
    one row per sampled index. NULL cells render as empty, cell-internal
    pipes are escaped as ``\\|`` and line breaks as ``\\n``, ``\\r`` and
    so on.
    """
    return f"Table name: {table.name}\nExample table content:\n{grid}"


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def save_corpus(corpus: TableCorpus, path: str | Path) -> None:
    """Write ``corpus`` to ``path`` as it is held, column-major.

    Each table entry holds its ``id``, ``name``, ``source`` label,
    ``columns`` (the names) and ``values``, one list of cells per column,
    written straight from :attr:`Column.values`. The row count is the length
    of those lists; a table with no columns has none to measure, so only it
    also holds ``rows``, its row count.
    """
    tables = []
    for t in corpus.tables:
        entry = {
            "id": t.id,
            "name": t.name,
            "columns": [c.name for c in t.columns],
            "values": [c.values for c in t.columns],
            "source": corpus.provenance.get(t.id, ""),
        }
        if not t.columns:
            entry["rows"] = t.row_count
        tables.append(entry)
    write_artifact(path, {"tables": tables})


#: The types a ``corpus.json`` cell may hold: text, or null for NULL.
_CELL_TYPES = {str, type(NULL)}


def _load_table(entry: object, path: str | Path, what: str) -> Table:
    """The table of one ``corpus.json`` entry, built from its value lists."""
    table_id = require(entry, "id", path, what, str)
    name = require(entry, "name", path, what, str)
    columns = require(entry, "columns", path, what, list)
    values = require(entry, "values", path, what, list)

    def refuse(problem: str) -> CorpusError:
        return CorpusError(f"malformed {what} {path}: table {table_id!r} {problem}")

    if set(map(type, columns)) - {str}:
        raise refuse("has a column name that is not a string")
    if len(values) != len(columns) or set(map(type, values)) - {list}:
        raise refuse(f"values are not one list for each of its {len(columns)} columns")
    # a table with no columns has no value list to hold its row count; Table
    # refuses a column of another length than the first
    row_count = len(values[0]) if values else entry.get("rows")
    if type(row_count) is not int or row_count < 0:
        raise refuse(f"has no columns and field 'rows' holds {row_count!r}, not a row count")
    for column, cells in zip(columns, values):
        # one type scan per column; the cell is looked for only to name it
        if set(map(type, cells)) - _CELL_TYPES:
            number, cell = next((i, v) for i, v in enumerate(cells, start=1) if type(v) not in _CELL_TYPES)
            raise refuse(f"column {column!r} row {number} holds {type(cell).__name__}, not a string or null")
    try:
        return Table._from_columns(table_id, name, columns, map(tuple, values), row_count)
    except CorpusError as exc:
        raise CorpusError(f"malformed {what} {path}: {exc}") from None


def load_corpus(path: str | Path) -> TableCorpus:
    """The corpus saved at ``path`` by :func:`save_corpus`, each table built
    from its value lists with no transpose.

    A column name that is not a string, ``values`` that are not one list per
    column, a column of another length than the others, a table with no
    columns whose ``rows`` is not a count, or a cell that is neither a string
    nor null raises :class:`CorpusError` naming the file and the table, and
    for a cell also its column and its row, counted from 1.
    """
    what = "corpus file"
    data = read_artifact(path, what)
    tables = []
    provenance = {}
    for entry in require(data, "tables", path, what, list):
        table = _load_table(entry, path, what)
        tables.append(table)
        provenance[table.id] = entry.get("source", "")
    return TableCorpus(tables=tuple(tables), provenance=provenance)
