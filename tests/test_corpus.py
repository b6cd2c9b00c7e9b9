"""Corpus loading, pooling, sampling, and Markdown serialization."""

from __future__ import annotations

import csv
import hashlib
import json
import re
import sqlite3

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tablescout import (
    CorpusError,
    Table,
    TableCorpus,
    markdown_grid,
    pool_corpora,
    sample_rows,
    serialize_markdown,
)
from tablescout.artifacts import FORMAT_VERSION, write_artifact
from tablescout.corpus import NULL, Column, load_corpus, load_tables, normalize_value, save_corpus


def make_table(name: str, column_names, rows, table_id=None):
    return Table.build(table_id or name, name, column_names, rows)


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------


class TestLoadCsv:
    def test_basic_parse_with_null_cell(self, tmp_path):
        (tmp_path / "t.csv").write_text("a,b\n1,2\n3,\n", encoding="utf-8")
        tables = load_tables(tmp_path, "csv-dir")
        assert len(tables) == 1
        t = tables[0]
        assert t.column_names() == ("a", "b")
        assert t.row_count == 2
        assert t.columns[0].values == ("1", "3")
        assert t.columns[1].values == ("2", NULL)

    def test_header_only_csv_has_zero_rows(self, tmp_path):
        (tmp_path / "t.csv").write_text("a,b\n", encoding="utf-8")
        (t,) = load_tables(tmp_path, "csv-dir")
        assert t.row_count == 0
        assert t.column_names() == ("a", "b")

    def test_two_csvs_get_distinct_ids(self, tmp_path):
        (tmp_path / "x.csv").write_text("a\n1\n", encoding="utf-8")
        (tmp_path / "y.csv").write_text("b\n2\n", encoding="utf-8")
        tables = load_tables(tmp_path, "csv-dir")
        assert len(tables) == 2
        assert len({t.id for t in tables}) == 2

    def test_arity_mismatch_reports_file_and_line(self, tmp_path):
        (tmp_path / "bad.csv").write_text("a,b\n1,2\n3,4,5\n", encoding="utf-8")
        with pytest.raises(CorpusError, match=r"bad\.csv:3"):
            load_tables(tmp_path, "csv-dir")

    def test_duplicate_column_names_rejected(self, tmp_path):
        (tmp_path / "dup.csv").write_text("a,a\n1,2\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="duplicate column"):
            load_tables(tmp_path, "csv-dir")

    def test_missing_path_rejected(self, tmp_path):
        with pytest.raises(CorpusError, match="does not exist"):
            load_tables(tmp_path / "nope", "csv-dir")

    def test_missing_header_rejected(self, tmp_path):
        (tmp_path / "empty.csv").write_text("", encoding="utf-8")
        with pytest.raises(CorpusError, match="missing header"):
            load_tables(tmp_path, "csv-dir")

    def test_byte_order_mark_stripped_from_first_header(self, tmp_path):
        (tmp_path / "t.csv").write_text("id,name\n1,Ada\n", encoding="utf-8-sig")
        (t,) = load_tables(tmp_path, "csv-dir")
        assert t.column_names() == ("id", "name")

    def test_blank_header_line_gives_a_zero_column_table(self, tmp_path):
        (tmp_path / "t.csv").write_text("\n\n", encoding="utf-8")
        (t,) = load_tables(tmp_path, "csv-dir")
        assert t.columns == ()
        assert t.row_count == 1


class TestLoadSqlite:
    def test_reads_all_tables_sorted(self, tmp_path):
        db = tmp_path / "d.sqlite"
        conn = sqlite3.connect(db)
        conn.execute("CREATE TABLE zed (a INTEGER)")
        conn.execute("CREATE TABLE alpha (x TEXT, y REAL)")
        conn.execute("INSERT INTO alpha VALUES ('hi', 1.5)")
        conn.execute("INSERT INTO zed VALUES (NULL)")
        conn.commit()
        conn.close()
        tables = load_tables(db, "sqlite-file")
        assert [t.name for t in tables] == ["alpha", "zed"]
        alpha, zed = tables
        assert alpha.columns[1].values == ("1.5",)
        assert zed.columns[0].values == (NULL,)

    @pytest.mark.parametrize("name", ["x#y.sqlite", "p?q.sqlite", "a%41.sqlite"])
    def test_uri_characters_in_the_file_name(self, tmp_path, name):
        # '#', '?' and '%' end or escape a URI path unless percent-encoded
        db = tmp_path / name
        conn = sqlite3.connect(db)
        conn.execute("CREATE TABLE t (a TEXT)")
        conn.execute("INSERT INTO t VALUES ('x')")
        conn.commit()
        conn.close()
        (t,) = load_tables(db, "sqlite-file")
        assert t.name == "t" and t.columns[0].values == ("x",)
        assert [f.name for f in tmp_path.iterdir()] == [name]

    def test_table_name_with_double_quote(self, tmp_path):
        db = tmp_path / "d.sqlite"
        conn = sqlite3.connect(db)
        conn.execute('CREATE TABLE "we""ird" (a TEXT)')
        conn.execute("INSERT INTO \"we\"\"ird\" VALUES ('x')")
        conn.commit()
        conn.close()
        (t,) = load_tables(db, "sqlite-file")
        assert t.name == 'we"ird'
        assert t.columns[0].values == ("x",)

    def test_cells_render_as_pinned(self, tmp_path):
        db = tmp_path / "d.sqlite"
        conn = sqlite3.connect(db)
        # no declared types, so each value keeps its own storage class
        conn.execute("CREATE TABLE t (mixed, txt, num)")
        conn.executemany(
            "INSERT INTO t VALUES (?, ?, ?)",
            [
                (None, "a", 1),
                (7, "", -2),
                (0.1 + 0.2, "   ", 0),
                (1e20, "  padded  ", 10**18),
                (b"\x00\xff", "x", 3),
                ("  padded  ", "y", 4),
                ("", "z", 5),
                ("   ", "w", 6),
            ],
        )
        conn.commit()
        conn.close()
        (t,) = load_tables(db, "sqlite-file")
        mixed, txt, num = (c.values for c in t.columns)
        # empty and blank SQLite text stay "", unlike an empty CSV cell
        assert mixed == (NULL, "7", "0.3", "1e+20", "00ff", "padded", "", "")
        assert txt == ("a", "", "", "padded", "x", "y", "z", "w")
        assert num == ("1", "-2", "0", "1000000000000000000", "3", "4", "5", "6")

    @pytest.mark.parametrize(
        "kind, complaint",
        [("csv-dir", "csv-dir source is not a directory"), ("sqlite-file", "sqlite-file source is not a file")],
    )
    def test_source_of_the_other_kind_rejected(self, tmp_path, kind, complaint):
        db = tmp_path / "shop.sqlite"
        sqlite3.connect(db).close()
        path = db if kind == "csv-dir" else tmp_path
        with pytest.raises(CorpusError, match=complaint):
            load_tables(path, kind)

    def test_unknown_format_rejected(self, tmp_path):
        (tmp_path / "x").write_text("", encoding="utf-8")
        with pytest.raises(CorpusError, match="unknown source format"):
            load_tables(tmp_path / "x", "parquet")


# ---------------------------------------------------------------------------
# Pooling
# ---------------------------------------------------------------------------


class TestPooling:
    def test_name_conflict_gets_numbered_suffix(self):
        a = make_table("buildings", ["id"], [["1"]])
        b = make_table("buildings", ["code", "city"], [["x", "y"]])
        corpus = pool_corpora([("A", [a]), ("B", [b])])
        assert sorted(corpus.ids()) == ["buildings", "buildings__2"]

    def test_disjoint_names_unchanged(self):
        a = make_table("x", ["a"], [])
        b = make_table("y", ["b"], [])
        corpus = pool_corpora([("A", [a]), ("B", [b])])
        assert sorted(corpus.ids()) == ["x", "y"]
        assert len(corpus) == 2

    def test_three_way_conflict_suffixes_follow_sorted_source_order(self):
        tables = {label: make_table("t", ["c"], [[label]]) for label in ("s1", "s2", "s3")}
        corpus = pool_corpora([("s2", [tables["s2"]]), ("s3", [tables["s3"]]), ("s1", [tables["s1"]])])
        # sources sort s1 < s2 < s3, so s1 keeps the bare name
        assert corpus.get("t").columns[0].values == ("s1",)
        assert corpus.get("t__2").columns[0].values == ("s2",)
        assert corpus.get("t__3").columns[0].values == ("s3",)

    def test_pooling_deterministic_under_input_order(self):
        def build(order):
            parts = [(label, [make_table("t", ["c"], [[label]])]) for label in order]
            return pool_corpora(parts)

        first = build(["b", "a", "c"])
        second = build(["c", "b", "a"])
        assert first.ids() == second.ids()
        assert [t.columns[0].values for t in first] == [t.columns[0].values for t in second]

    def test_identical_schemas_still_pooled_under_renames(self):
        a = make_table("t", ["id"], [["1"]])
        b = make_table("t", ["id"], [["1"]])
        corpus = pool_corpora([("A", [a]), ("B", [b])])
        assert len(corpus) == 2

    def test_provenance_recorded_but_not_in_serialization(self):
        a = make_table("t", ["c"], [["v"]])
        corpus = pool_corpora([("secret_source", [a])])
        assert corpus.provenance["t"] == "secret_source"
        t = corpus.get("t")
        text = serialize_markdown(t, markdown_grid(t, sample_rows(t)))
        assert "secret_source" not in text

    def test_pooled_names_pairwise_distinct_property(self):
        sources = [
            (f"s{i}", [make_table("dup", ["c"], []) for _ in range(3)]) for i in range(4)
        ]
        corpus = pool_corpora(sources)
        names = [t.name for t in corpus]
        assert len(names) == len(set(names)) == 12


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def reference_sample_rows(table, n, seed):
    """The sample drawn from a seeded generator for every table, whole ones too."""
    count = min(n, table.row_count)
    if count == 0:
        return []
    digest = hashlib.blake2b(f"{seed}|{table.id}".encode("utf-8"), digest_size=16).digest()
    rng = np.random.default_rng(np.frombuffer(digest, dtype=np.uint64))
    picked = rng.choice(table.row_count, size=count, replace=False)
    return sorted(int(i) for i in picked)


class TestSampleRows:
    def test_small_table_returns_all_indices(self):
        t = make_table("t", ["a"], [["1"], ["2"], ["3"]])
        assert sample_rows(t, n=5, seed=42) == [0, 1, 2]

    def test_empty_table_returns_nothing(self):
        t = make_table("t", ["a"], [])
        assert sample_rows(t, n=5, seed=42) == []

    def test_large_table_sampling_is_reproducible(self):
        t = make_table("t", ["a"], [[str(i)] for i in range(1000)])
        first = sample_rows(t, n=5, seed=42)
        second = sample_rows(t, n=5, seed=42)
        assert first == second
        assert len(first) == 5
        assert first == sorted(set(first))

    def test_seed_changes_selection(self):
        t = make_table("t", ["a"], [[str(i)] for i in range(1000)])
        assert sample_rows(t, seed=42) != sample_rows(t, seed=43)

    def test_depends_on_table_id_not_contents(self):
        rows = [[str(i)] for i in range(100)]
        t1 = make_table("one", ["a"], rows)
        t2 = make_table("two", ["a"], rows)
        t1_again = make_table("one", ["a"], [[f"other{i}"] for i in range(100)])
        assert sample_rows(t1) != sample_rows(t2)
        assert sample_rows(t1) == sample_rows(t1_again)

    def test_negative_n_rejected(self):
        t = make_table("t", ["a"], [["1"]])
        with pytest.raises(ValueError):
            sample_rows(t, n=-1)

    @given(
        n=st.integers(min_value=0, max_value=12),
        rows=st.integers(min_value=0, max_value=15),
        seed=st.integers(min_value=0, max_value=2**32),
        # any id a table may hold: one that is not blank
        table_id=st.text(min_size=1, max_size=8).filter(str.strip),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_the_seeded_draw(self, n, rows, seed, table_id):
        # a table sampled whole skips the generator; the indices must be
        # those the seeded draw gives
        t = make_table("t", ["a"], [[str(i)] for i in range(rows)], table_id=table_id)
        assert sample_rows(t, n=n, seed=seed) == reference_sample_rows(t, n, seed)

    @given(n=st.integers(min_value=0, max_value=12), rows=st.integers(min_value=0, max_value=30))
    @settings(max_examples=50, deadline=None)
    def test_sample_size_and_range_property(self, n, rows):
        t = make_table("t", ["a"], [[str(i)] for i in range(rows)])
        picked = sample_rows(t, n=n, seed=7)
        assert len(picked) == min(n, rows)
        assert len(set(picked)) == len(picked)
        assert all(0 <= i < rows for i in picked)
        assert picked == sorted(picked)


# ---------------------------------------------------------------------------
# Markdown serialization
# ---------------------------------------------------------------------------


class TestSerializeMarkdown:
    def test_block_layout(self):
        t = make_table(
            "satscores",
            ["cds", "rtype"],
            [["1100170000000", "D"], ["1100170109835", "S"]],
        )
        text = serialize_markdown(t, markdown_grid(t, [0, 1]))
        lines = text.split("\n")
        assert lines[0] == "Table name: satscores"
        assert lines[1] == "Example table content:"
        assert lines[2] == "| cds | rtype |"
        assert lines[3] == "|-------:|-------:|"
        assert lines[4] == "| 1100170000000 | D |"
        assert lines[5] == "| 1100170109835 | S |"

    def test_zero_row_table_renders_header_and_alignment_only(self):
        t = make_table("t", ["a", "b"], [])
        text = serialize_markdown(t, markdown_grid(t, []))
        after = text.split("Example table content:\n", 1)[1]
        assert after.split("\n") == ["| a | b |", "|-------:|-------:|"]

    def test_single_sampled_row_line_count(self):
        # after the content marker: header, alignment, one data row
        t = make_table("t", ["a", "b"], [["1", "2"]])
        text = serialize_markdown(t, markdown_grid(t, [0]))
        after = text.split("Example table content:\n", 1)[1]
        non_empty = [line for line in after.split("\n") if line]
        assert len(non_empty) == 3

    def test_null_renders_empty_and_pipes_escaped(self):
        t = make_table("t", ["a", "b"], [[NULL, "x|y"]])
        text = serialize_markdown(t, markdown_grid(t, [0]))
        assert "|  | x\\|y |" in text

    def test_column_order_preserved_on_reparse(self):
        names = ["zeta", "alpha", "mid"]
        t = make_table("t", names, [["1", "2", "3"]])
        header_line = markdown_grid(t, [0]).split("\n")[0]
        reparsed = [c.strip() for c in header_line.strip("|").split("|")]
        assert reparsed == names

    def test_emits_min_5_or_row_count_data_rows(self):
        for rows in (0, 3, 5, 9):
            t = make_table("t", ["a"], [[str(i)] for i in range(rows)])
            sample = sample_rows(t)
            grid = markdown_grid(t, sample)
            assert len(grid.split("\n")) == 2 + min(5, rows)

    @given(
        header=st.text(max_size=12),
        cells=st.lists(st.one_of(st.none(), st.text(max_size=12)), min_size=1, max_size=6),
    )
    @settings(max_examples=200, deadline=None)
    def test_one_line_per_row_whatever_the_cell_text(self, header, cells):
        # a line break in a header or cell must not split its grid row
        t = make_table("t", [header, header + "_2"], [[c, c] for c in cells])
        sample = list(range(len(cells)))
        assert len(markdown_grid(t, sample).splitlines()) == len(sample) + 2

    def test_out_of_range_sample_index_rejected(self):
        t = make_table("t", ["a"], [["1"]])
        with pytest.raises(CorpusError):
            markdown_grid(t, [3])


# ---------------------------------------------------------------------------
# Values and persistence
# ---------------------------------------------------------------------------


class TestValuesAndPersistence:
    def test_normalize_value_trims_and_casefolds(self):
        assert normalize_value("  AbC ") == "abc"

    def test_table_invariants_enforced(self):
        with pytest.raises(CorpusError, match="duplicate column"):
            make_table("t", ["a", "a"], [["1", "2"]])

    @pytest.mark.parametrize("row_count", [1, 3])
    def test_column_of_another_length_than_row_count_rejected(self, row_count):
        columns = (Column("a", ("1", "2")), Column("b", ("x", "y")))
        with pytest.raises(CorpusError, match=f"column 'a' has 2 values, expected {row_count}"):
            Table(id="t", name="t", columns=columns, row_count=row_count)

    @pytest.mark.parametrize("row", [["1"], ["1", "2", "3"]], ids=["short", "long"])
    def test_build_rejects_a_row_of_the_wrong_width(self, row):
        with pytest.raises(CorpusError, match=r"table 't': row 2 has \d cells, expected 2"):
            make_table("t", ["a", "b"], [["1", "2"], row])

    def test_corpus_rejects_duplicate_ids(self):
        t1 = make_table("t", ["a"], [])
        t2 = make_table("t", ["b"], [])
        with pytest.raises(CorpusError, match="not unique"):
            TableCorpus(tables=(t1, t2), provenance={})

    def test_get_by_id(self):
        t1 = make_table("t1", ["a"], [["1"]])
        t2 = make_table("t2", ["a"], [["2"]])
        corpus = TableCorpus(tables=(t1, t2), provenance={})
        assert corpus.get("t2") is t2
        assert corpus.get("t1") is t1
        with pytest.raises(KeyError):
            corpus.get("t3")

    def test_save_load_round_trip(self, tmp_path):
        a = make_table("x", ["a", "b"], [["1", NULL], ["2", "3"]])
        corpus = pool_corpora([("src", [a])])
        path = tmp_path / "corpus.json"
        save_corpus(corpus, path)
        loaded = load_corpus(path)
        assert loaded.ids() == corpus.ids()
        assert loaded.get("x").columns[0].values == ("1", "2")
        assert loaded.get("x").columns[1].values == (NULL, "3")
        assert loaded.provenance["x"] == "src"

    def test_save_is_byte_stable(self, tmp_path):
        a = make_table("x", ["a"], [["1"]])
        corpus = pool_corpora([("s", [a])])
        p1, p2 = tmp_path / "c1.json", tmp_path / "c2.json"
        save_corpus(corpus, p1)
        save_corpus(corpus, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_zero_column_table_keeps_its_rows(self, tmp_path):
        t = make_table("t", [], [[], []])
        path = tmp_path / "corpus.json"
        save_corpus(TableCorpus(tables=(t,)), path)
        assert load_corpus(path).get("t").row_count == 2

    @pytest.mark.parametrize(
        "fields, complaint",
        [
            ({"values": [["1", "2"]]}, "values are not one list for each of its 2 columns"),
            ({"values": [["1", "2"], [None, "3"], []]}, "values are not one list for each of its 2 columns"),
            ({"values": [["1", "2"], "3"]}, "values are not one list for each of its 2 columns"),
            ({"values": [["1", "2"], ["3"]]}, "column 'b' has 1 values, expected 2"),
            ({"values": [["1", "2"], [None, "3", "4"]]}, "column 'b' has 3 values, expected 2"),
            ({"values": [["1", 2], [None, "3"]]}, "column 'a' row 2 holds int, not a string or null"),
            ({"columns": ["a", 5]}, "has a column name that is not a string"),
            ({"columns": ["a", "a"]}, "duplicate column 'a'"),
            ({"columns": [], "values": []}, "has no columns and field 'rows' holds None, not a row count"),
            ({"columns": [], "values": [], "rows": -1}, "field 'rows' holds -1, not a row count"),
            ({"columns": [], "values": [], "rows": True}, "field 'rows' holds True, not a row count"),
            ({"columns": [], "values": [], "rows": "2"}, "field 'rows' holds '2', not a row count"),
        ],
        ids=["one-list-short", "one-list-over", "not-a-list", "short-column", "long-column", "int-cell",
             "int-name", "repeated-name", "no-rows", "negative-rows", "bool-rows", "string-rows"],
    )
    def test_load_refuses_a_malformed_table(self, tmp_path, fields, complaint):
        path = tmp_path / "corpus.json"
        save_corpus(pool_corpora([("src", [make_table("x", ["a", "b"], [["1", NULL], ["2", "3"]])])]), path)
        data = json.loads(path.read_text(encoding="utf-8"))
        data["tables"][0].update(fields)
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(CorpusError, match=re.escape(complaint)) as refused:
            load_corpus(path)
        assert f"malformed corpus file {path}: table 'x'" in str(refused.value)

    def test_load_rejects_malformed_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(CorpusError, match="malformed"):
            load_corpus(path)


# ---------------------------------------------------------------------------
# Column-at-a-time ingest against a row-by-row reference
# ---------------------------------------------------------------------------


def reference_csv_table(path):
    """Load one CSV file a row and a cell at a time."""
    with path.open(newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        header = [h.strip() for h in next(reader)]
        rows = []
        for raw in reader:
            if len(raw) != len(header):
                raise CorpusError(f"{path}:{reader.line_num}: row has {len(raw)} cells, header has {len(header)}")
            rows.append([c.strip() or NULL for c in raw])
    name = path.stem.strip()
    return reference_table(name, header, rows)


def reference_sqlite_cell(value):
    if value is None:
        return NULL
    if isinstance(value, bytes):
        return value.hex()
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value).strip()


def reference_sqlite_tables(path):
    """Load every table of a SQLite file a row and a cell at a time."""
    conn = sqlite3.connect(path)
    try:
        names = [
            r[0]
            for r in conn.execute(
                "SELECT name FROM sqlite_master WHERE type='table' AND name NOT LIKE 'sqlite_%' ORDER BY name"
            )
        ]
        tables = []
        for raw_name in names:
            quoted = raw_name.replace('"', '""')
            cur = conn.execute(f'SELECT * FROM "{quoted}"')
            header = [d[0] for d in cur.description]
            rows = [[reference_sqlite_cell(v) for v in row] for row in cur.fetchall()]
            tables.append(reference_table(raw_name.strip(), header, rows))
        return tables
    finally:
        conn.close()


def reference_table(name, header, rows):
    """A table whose columns are gathered one cell at a time."""
    columns = tuple(
        Column(name=col, values=tuple(row[pos] for row in rows))
        for pos, col in enumerate(header)
    )
    return Table(id=name, name=name, columns=columns, row_count=len(rows))


def reference_save(corpus, path):
    """``save_corpus`` gathering each column's value list a cell at a time,
    by indexing every row; ``rows`` only for a table with no columns."""
    tables = []
    for t in corpus.tables:
        entry = {
            "id": t.id,
            "name": t.name,
            "columns": list(t.column_names()),
            "values": [[t.row(i)[pos] for i in range(t.row_count)] for pos in range(len(t.columns))],
            "source": corpus.provenance.get(t.id, ""),
        }
        if not t.columns:
            entry["rows"] = t.row_count
        tables.append(entry)
    write_artifact(path, {"tables": tables})


def reference_row_save(corpus, path):
    """The ``corpus.json`` of format version 3, which held each table by row."""
    tables = [
        {
            "id": t.id,
            "name": t.name,
            "columns": list(t.column_names()),
            "rows": [[c.values[i] for c in t.columns] for i in range(t.row_count)],
            "source": corpus.provenance.get(t.id, ""),
        }
        for t in corpus.tables
    ]
    text = json.dumps({"tables": tables, "version": 3}, sort_keys=True, ensure_ascii=False, separators=(",", ":"))
    path.write_text(text, encoding="utf-8")


def reference_row_load(path):
    """The corpus of a version-3 ``corpus.json``, its tables built row by row."""
    data = json.loads(path.read_text(encoding="utf-8"))
    assert data["version"] == 3
    tables = tuple(Table.build(t["id"], t["name"], t["columns"], t["rows"]) for t in data["tables"])
    return TableCorpus(tables=tables, provenance={t["id"]: t["source"] for t in data["tables"]})


def write_csv(path, header, rows):
    with path.open("w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerows([header, *rows])


def write_sqlite(path, tables):
    conn = sqlite3.connect(path)
    for name, header, rows in tables:
        quoted = name.replace('"', '""')
        cols = ", ".join('"' + h.replace('"', '""') + '"' for h in header)
        conn.execute(f'CREATE TABLE "{quoted}" ({cols})')
        marks = ", ".join("?" * len(header))
        conn.executemany(f'INSERT INTO "{quoted}" VALUES ({marks})', rows)
    conn.commit()
    conn.close()


# cells ingest must carry through unchanged: blanks, pipes, quotes, line
# breaks, commas and non-ASCII text (no surrogates or NULs, which neither
# UTF-8 files nor every csv module version take)
awkward_text = st.text(
    alphabet=st.one_of(
        st.sampled_from(' \t\n\r|"\',;\\ßé漢  ﻿'),
        st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
    ),
    max_size=8,
)
headers = st.lists(
    st.text(alphabet="abcXYZ _|\"", min_size=1, max_size=5).filter(str.strip),
    min_size=1,
    max_size=4,
    unique_by=str.strip,
)


@st.composite
def csv_tables(draw):
    header = draw(headers)
    cell = st.one_of(st.just(""), awkward_text)
    rows = draw(st.lists(st.lists(cell, min_size=len(header), max_size=len(header)), max_size=6))
    return header, rows


sqlite_values = st.one_of(
    st.none(),
    awkward_text,
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.floats(allow_nan=False),
    st.binary(max_size=4),
)


@st.composite
def sqlite_tables(draw):
    header = draw(headers)
    # some columns hold one type only, so the all-text conversion and
    # all-integer columns are drawn as often as mixed ones
    kinds = [draw(st.sampled_from([awkward_text, st.integers(-9, 10**12), sqlite_values])) for _ in header]
    n = draw(st.integers(min_value=0, max_value=6))
    rows = [[draw(kind) for kind in kinds] for _ in range(n)]
    return header, rows


class TestColumnarIngestMatchesReference:
    @given(tables=st.lists(csv_tables(), min_size=1, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_csv_dir(self, tmp_path_factory, tables):
        base = tmp_path_factory.mktemp("csv")
        for i, (header, rows) in enumerate(tables):
            write_csv(base / f"t{i}.csv", header, rows)
        expected = [reference_csv_table(base / f"t{i}.csv") for i in range(len(tables))]
        loaded = load_tables(base, "csv-dir")
        assert loaded == expected
        self.check_round_trip(base, loaded)

    @given(tables=st.lists(sqlite_tables(), min_size=1, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_sqlite_file(self, tmp_path_factory, tables):
        base = tmp_path_factory.mktemp("db")
        db = base / "d.sqlite"
        write_sqlite(db, [(f"t{i}", header, rows) for i, (header, rows) in enumerate(tables)])
        loaded = load_tables(db, "sqlite-file")
        assert loaded == reference_sqlite_tables(db)
        self.check_round_trip(base, loaded)

    @staticmethod
    def check_round_trip(base, tables):
        pooled = pool_corpora([("src", tables)])
        save_corpus(pooled, base / "corpus.json")
        reference_save(pooled, base / "reference.json")
        assert (base / "corpus.json").read_bytes() == (base / "reference.json").read_bytes()
        assert load_corpus(base / "corpus.json").tables == pooled.tables

    def test_ragged_csv_fails_as_the_reference_does(self, tmp_path):
        (tmp_path / "t.csv").write_text("a,b\n1,2\n\n3,4,5\n", encoding="utf-8")
        with pytest.raises(CorpusError) as expected:
            reference_csv_table(tmp_path / "t.csv")
        with pytest.raises(CorpusError) as got:
            load_tables(tmp_path, "csv-dir")
        assert str(got.value) == str(expected.value)


def write_awkward_pool(base):
    """Two CSV sources and a SQLite file with colliding names and awkward cells."""
    one, two = base / "one", base / "two"
    one.mkdir()
    two.mkdir()
    (one / "people.csv").write_text(
        'id,name , note\n1, Ada ,"likes | pipes"\n2,,"two\nlines"\n3,Zoë,"say ""hi"""\n',
        encoding="utf-8-sig",
    )
    (one / "empty.csv").write_text("only,header\n", encoding="utf-8")
    (one / "blank.csv").write_text("\n\n", encoding="utf-8")
    (two / "people.csv").write_text("id,city\n1,Bern\n4,  \n", encoding="utf-8")
    (two / "pipe|name.csv").write_text("x\n \n\t\n", encoding="utf-8")
    write_sqlite(
        base / "three.sqlite",
        [
            ("people", ["id", "score", "blob"], [(1, 0.1 + 0.2, b"\x01"), (5, 1e20, None), (6, -0.0, b"")]),
            ("notes", ["text"], [("  padded  ",), ("",), ("漢字",)]),
        ],
    )
    return [("one", one, "csv-dir"), ("two", two, "csv-dir"), ("three", base / "three.sqlite", "sqlite-file")]


#: sha256 of the corpus.json the awkward pool ingests to, in compact JSON,
#: one value list per column as format version 4 writes it, taken from this
#: module's cell-by-cell reference writer
AWKWARD_POOL_SHA256 = "85f8293b23148eee2985aac4a603c0964d2006059c883e63b0e6494fce8212ce"
#: sha256 of the same tables held by row, as format version 3 wrote them
#: (its reference row writer reproduces those bytes); version 2 wrote the
#: same rows with ``"version":2`` (0a564762...)
AWKWARD_POOL_V3_SHA256 = "afb08097b83e4ae777472191fa0a060a05b3062e77b3a58e104b861f9601294f"
#: sha256 of the version-3 content written with json's default ", " and ": "
#: separators, as corpus.json was before it was compact, taken from the
#: row-by-row ingest this module's reference loader reproduces; format
#: versions 1 and 2 wrote those bytes with their own ``"version"``
#: (810493b6... and dccb1e24...)
AWKWARD_POOL_SPACED_SHA256 = "56098ed531bce1282e77d9524dfae2ed0bdd124595bf5cd2e283bc0451c3f365"


def awkward_pool(base):
    sources = write_awkward_pool(base)
    return pool_corpora([(label, load_tables(path, kind)) for label, path, kind in sources])


def sha256_of(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_awkward_pool_corpus_bytes_are_pinned(tmp_path):
    pooled = awkward_pool(tmp_path)
    save_corpus(pooled, tmp_path / "corpus.json")
    reference_save(pooled, tmp_path / "reference.json")
    assert sha256_of(tmp_path / "reference.json") == AWKWARD_POOL_SHA256
    assert (tmp_path / "corpus.json").read_bytes() == (tmp_path / "reference.json").read_bytes()
    content = json.loads((tmp_path / "corpus.json").read_text(encoding="utf-8"))
    assert content["version"] == FORMAT_VERSION
    # a table's row count is the length of its value lists; only the table
    # with no columns, blank.csv, has none and holds ``rows``
    assert {t["id"]: t["rows"] for t in content["tables"] if "rows" in t} == {"blank": 1}


def test_awkward_pool_round_trips_table_for_table(tmp_path):
    pooled = awkward_pool(tmp_path)
    shapes = {t.id: (len(t.columns), t.row_count) for t in pooled}
    # the pool holds a table with no columns and one with no rows
    assert shapes["blank"] == (0, 1) and shapes["empty"] == (2, 0)
    save_corpus(pooled, tmp_path / "corpus.json")
    loaded = load_corpus(tmp_path / "corpus.json")
    assert loaded.tables == pooled.tables
    assert loaded.provenance == pooled.provenance


def test_awkward_pool_held_by_row_at_version_3_loads_to_the_same_tables(tmp_path):
    pooled = awkward_pool(tmp_path)
    reference_row_save(pooled, tmp_path / "rows.json")
    assert sha256_of(tmp_path / "rows.json") == AWKWARD_POOL_V3_SHA256
    content = json.loads((tmp_path / "rows.json").read_text(encoding="utf-8"))
    spaced = json.dumps(content, sort_keys=True, ensure_ascii=False).encode("utf-8")
    assert hashlib.sha256(spaced).hexdigest() == AWKWARD_POOL_SPACED_SHA256
    save_corpus(pooled, tmp_path / "corpus.json")
    by_row = reference_row_load(tmp_path / "rows.json")
    by_column = load_corpus(tmp_path / "corpus.json")
    assert by_column.tables == by_row.tables
    assert by_column.provenance == by_row.provenance
    with pytest.raises(CorpusError, match="unsupported corpus file format version 3"):
        load_corpus(tmp_path / "rows.json")
