"""End-to-end tests for the command-line interface."""

import csv
import functools
import json
import os
import pathlib
import sqlite3

import pytest

from tablescout import DenseIndex, HashingEmbedder, cli
from tablescout.artifacts import FORMAT_VERSION, read_npz
from tablescout.cli import (
    EXIT_BACKEND,
    EXIT_CONFIG,
    EXIT_INPUT,
    EXIT_OK,
    main,
    parse_embedder_spec,
    parse_generator_spec,
)
from tablescout.errors import ConfigError
from tablescout.evaluation import INPUT_RATE_PER_MILLION, OUTPUT_RATE_PER_MILLION
from tablescout.pipeline import DEFAULT_RESTORE_THRESHOLD, DEFAULT_TOP_K
from tablescout.prompts import SELECTION_PROMPT_TEMPLATE
from tablescout.services import CachingEmbedder, HttpEmbeddingClient, ScriptedGenerator, text_key


def selection_json(indices):
    return json.dumps(
        {
            "group_formation": {
                "groups_formed": [{"group_index": 0, "table_indices": list(indices)}]
            },
            "group_selection": {"selected_group_index": 0},
        }
    )


def write_jsonl(path, records):
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")


@pytest.fixture()
def sources(tmp_path):
    """Two CSV directories with a table-name collision on 'shared'."""
    a = tmp_path / "alpha"
    b = tmp_path / "beta"
    a.mkdir()
    b.mkdir()
    (a / "museums.csv").write_text(
        "museum_id,name,city_id\n"
        "1,City Museum,1\n"
        "2,Art House,2\n"
        "3,Rail Museum,1\n"
        "4,Sea Museum,3\n"
    )
    (a / "shared.csv").write_text("code,v\nx,1\ny,2\n")
    (b / "cities.csv").write_text("city_id,city\n1,Bern\n2,Oslo\n3,Rome\n")
    (b / "shared.csv").write_text("code,v\nx,9\nz,8\n")
    return a, b


@pytest.fixture()
def out_dir(tmp_path):
    return tmp_path / "out"


def ingest(out_dir, a, b):
    return main(["ingest", "--out-dir", str(out_dir), f"a={a}", f"b={b}"])


def scripted_file(tmp_path, responses, name="responses.json"):
    path = tmp_path / name
    path.write_text(json.dumps(responses), encoding="utf-8")
    return path


def enrich(out_dir, tmp_path, purposes=("city list", "museum list", "pairs", "more pairs")):
    spec = f"scripted:{scripted_file(tmp_path, list(purposes), 'purposes.json')}"
    return main(["enrich", "--out-dir", str(out_dir), "--generator", spec])


def build_all(out_dir, tmp_path, a, b):
    assert ingest(out_dir, a, b) == EXIT_OK
    assert enrich(out_dir, tmp_path) == EXIT_OK
    assert main(["cache", "--out-dir", str(out_dir)]) == EXIT_OK


# ---------------------------------------------------------------------------
# Backend specs
# ---------------------------------------------------------------------------


class TestBackendSpecs:
    def test_stub_embedder(self):
        assert parse_embedder_spec("stub").dimension == 256
        assert parse_embedder_spec("stub:64").dimension == 64

    def test_http_embedder(self):
        emb = parse_embedder_spec("http:http://host:8080/v2,my-model")
        assert isinstance(emb, HttpEmbeddingClient)
        assert emb.backend_id == "http:my-model"

    def test_bad_embedder_specs(self):
        for spec in ("stub:abc", "http:nomodel", "magic"):
            with pytest.raises(ConfigError):
                parse_embedder_spec(spec)

    def test_scripted_generator(self, tmp_path):
        path = scripted_file(tmp_path, ["hello"])
        gen = parse_generator_spec(f"scripted:{path}")
        assert isinstance(gen, ScriptedGenerator)

    def test_bad_generator_specs(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_generator_spec("magic")
        with pytest.raises(ConfigError):
            parse_generator_spec(f"scripted:{tmp_path / 'absent.json'}")
        not_list = scripted_file(tmp_path, {"no": "list"})
        with pytest.raises(ConfigError):
            parse_generator_spec(f"scripted:{not_list}")

    @pytest.mark.parametrize(
        "item", [{"purpose": "x"}, None, 3, ["a"], True], ids=["object", "null", "number", "list", "bool"]
    )
    def test_scripted_item_that_is_not_a_string_is_config_error(self, out_dir, sources, tmp_path, capsys, item):
        path = scripted_file(tmp_path, ["city list", item])
        with pytest.raises(ConfigError, match=r"item 1 is not a string"):
            parse_generator_spec(f"scripted:{path}")
        assert ingest(out_dir, *sources) == EXIT_OK
        assert main(["enrich", "--out-dir", str(out_dir), "--generator", f"scripted:{path}"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert str(path) in err and "item 1" in err
        assert not (out_dir / "enriched.json").exists()


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------


class TestIngest:
    def test_pools_sources_with_renames(self, out_dir, sources):
        a, b = sources
        assert ingest(out_dir, a, b) == EXIT_OK
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["sources"] == ["a", "b"]
        by_id = {t["id"]: t for t in manifest["tables"]}
        assert set(by_id) == {"cities", "museums", "shared", "shared__2"}
        assert by_id["shared"]["source"] == "a"
        assert by_id["shared__2"]["source"] == "b"
        assert by_id["museums"]["rows"] == 4
        assert (out_dir / "corpus.json").exists()

    def test_rerun_is_byte_identical(self, out_dir, sources):
        a, b = sources
        assert ingest(out_dir, a, b) == EXIT_OK
        first = {
            name: (out_dir / name).read_bytes()
            for name in ("corpus.json", "manifest.json")
        }
        assert ingest(out_dir, a, b) == EXIT_OK
        for name, blob in first.items():
            assert (out_dir / name).read_bytes() == blob

    def test_labels_default_to_stems(self, out_dir, sources):
        a, b = sources
        assert main(["ingest", "--out-dir", str(out_dir), str(a), str(b)]) == EXIT_OK
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["sources"] == ["alpha", "beta"]

    def test_missing_source_is_input_error(self, out_dir, tmp_path):
        assert main(["ingest", "--out-dir", str(out_dir), str(tmp_path / "nope")]) == EXIT_INPUT

    def test_duplicate_labels_are_config_error(self, out_dir, sources):
        a, b = sources
        code = main(["ingest", "--out-dir", str(out_dir), f"x={a}", f"x={b}"])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize(
        "items",
        [["={a}"], [" ={a}", "  ={b}"], ["\u3000\t={a}"], ["{blank}"]],
        ids=["empty", "spaces-only", "unicode-space", "blank-stem"],
    )
    def test_blank_label_is_config_error_naming_the_item(self, out_dir, sources, capsys, items):
        # a blank label would be written as the "source" of a table with no provenance
        a, b = sources
        blank = a.parent / " "  # a source named by its path alone is labelled by its stem
        blank.mkdir()
        (blank / "t.csv").write_text("a\n1\n")
        items = [item.format(a=a, b=b, blank=blank) for item in items]
        assert main(["ingest", "--out-dir", str(out_dir), *items]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"source {items[0]!r}: source label" in err and "is blank" in err
        assert not (out_dir / "corpus.json").exists()

    def test_csv_that_is_not_utf8_is_input_error(self, out_dir, tmp_path, capsys):
        src = tmp_path / "src"
        src.mkdir()
        (src / "t.csv").write_bytes(b"a,b\n1,caf\xe9\n")
        assert main(["ingest", "--out-dir", str(out_dir), str(src)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"{src / 't.csv'}: not UTF-8 text" in err and "Traceback" not in err

    def test_csv_name_that_is_not_utf8_is_input_error(self, out_dir, tmp_path, capsys):
        src = tmp_path / "src"
        src.mkdir()
        (src / "ok.csv").write_text("a\n1\n")
        # a Latin-1 name: its stem decodes to a lone surrogate, "caf\udce9"
        with open(os.path.join(os.fsencode(src), b"caf\xe9.csv"), "wb") as handle:
            handle.write(b"a,b\n1,2\n")
        assert main(["ingest", "--out-dir", str(out_dir), f"s={src}"]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"{src}: file name 'caf\\udce9.csv' is not UTF-8 text" in err and "Traceback" not in err
        assert not (out_dir / "corpus.json").exists()

    def test_source_label_that_is_not_utf8_is_input_error(self, out_dir, tmp_path, capsys):
        src = os.path.join(os.fsencode(tmp_path), b"caf\xe9")
        os.mkdir(src)
        assert main(["ingest", "--out-dir", str(out_dir), os.fsdecode(src)]) == EXIT_INPUT
        assert "is not UTF-8 text" in capsys.readouterr().err
        assert not (out_dir / "corpus.json").exists()

    def test_csv_field_over_the_csv_limit_is_input_error(self, out_dir, tmp_path, capsys):
        src = tmp_path / "src"
        src.mkdir()
        (src / "t.csv").write_text("a,b\n1,2\n3," + "x" * (csv.field_size_limit() + 1) + "\n", encoding="utf-8")
        assert main(["ingest", "--out-dir", str(out_dir), str(src)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"{src / 't.csv'}:3: field larger than field limit" in err

    def test_ragged_record_is_named_by_its_file_line(self, out_dir, tmp_path, capsys):
        src = tmp_path / "src"
        src.mkdir()
        # the quoted cell spans lines 2-3, so the third record is on line 4
        (src / "t.csv").write_text('a,b\n"x\ny",2\n3,4,5\n', encoding="utf-8")
        assert main(["ingest", "--out-dir", str(out_dir), str(src)]) == EXIT_INPUT
        assert f"{src / 't.csv'}:4: row has 3 cells, header has 2" in capsys.readouterr().err

    def test_sqlite_source(self, out_dir, tmp_path):
        db = tmp_path / "small.sqlite"
        conn = sqlite3.connect(db)
        conn.execute("CREATE TABLE pets (name TEXT)")
        conn.execute("INSERT INTO pets VALUES ('ada')")
        conn.commit()
        conn.close()
        assert main(["ingest", "--out-dir", str(out_dir), f"zoo={db}"]) == EXIT_OK
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert [t["id"] for t in manifest["tables"]] == ["pets"]

    @pytest.mark.parametrize("case", ["file", "under-a-file", "artifact-is-a-directory"])
    def test_unusable_out_dir_is_input_error_naming_it(self, tmp_path, sources, capsys, case):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory", encoding="utf-8")
        out, named = {
            "file": (blocker, blocker),
            "under-a-file": (blocker / "run", blocker / "run"),
            "artifact-is-a-directory": (tmp_path / "run", tmp_path / "run" / "corpus.json"),
        }[case]
        if case == "artifact-is-a-directory":
            named.mkdir(parents=True)
        assert main(["ingest", "--out-dir", str(out), f"a={sources[0]}"]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and str(named) in err and "Traceback" not in err


    @pytest.mark.parametrize("case", ["csv", "sqlite", "corpus"])
    def test_blank_table_name_is_input_error_naming_the_file(self, out_dir, tmp_path, capsys, case):
        src = tmp_path / "src"
        src.mkdir()
        (src / "t.csv").write_text("a\n1\n", encoding="utf-8")
        if case == "csv":
            named = src / " .csv"
            named.write_text("a\n1\n", encoding="utf-8")
            argv = ["ingest", "--out-dir", str(out_dir), str(src)]
        elif case == "sqlite":
            named = tmp_path / "blank.sqlite"
            conn = sqlite3.connect(named)
            conn.execute('CREATE TABLE " " (a TEXT)')
            conn.commit()
            conn.close()
            argv = ["ingest", "--out-dir", str(out_dir), str(named)]
        else:
            assert main(["ingest", "--out-dir", str(out_dir), str(src)]) == EXIT_OK
            named = out_dir / "corpus.json"
            data = json.loads(named.read_text(encoding="utf-8"))
            data["tables"][0]["id"] = ""
            named.write_text(json.dumps(data), encoding="utf-8")
            argv = ["cache", "--out-dir", str(out_dir)]
        assert main(argv) == EXIT_INPUT
        err = capsys.readouterr().err
        assert str(named) in err and "blank" in err and "Traceback" not in err
        if case != "corpus":
            assert not (out_dir / "corpus.json").exists()


# ---------------------------------------------------------------------------
# enrich and cache
# ---------------------------------------------------------------------------


class TestEnrich:
    def test_builds_store_and_index(self, out_dir, sources, tmp_path):
        a, b = sources
        assert ingest(out_dir, a, b) == EXIT_OK
        assert enrich(out_dir, tmp_path) == EXIT_OK
        for name in ("enriched.json", "index.npz"):
            assert (out_dir / name).exists()
        # every vector embedded is in the index, so no cache segment holds one again
        assert list(out_dir.glob("embedding_cache.npz*")) == []
        index = DenseIndex.load(out_dir / "index.npz")
        assert len(index) == 4
        store = json.loads((out_dir / "enriched.json").read_text())
        # purposes land on tables in sorted-id order
        assert store["entries"]["cities"]["purpose"] == "city list"
        assert store["entries"]["museums"]["purpose"] == "museum list"

    def test_resume_skips_enriched_tables(self, out_dir, sources, tmp_path):
        a, b = sources
        assert ingest(out_dir, a, b) == EXIT_OK
        assert enrich(out_dir, tmp_path) == EXIT_OK
        # an empty script would fail on any further generation call
        assert enrich(out_dir, tmp_path, purposes=()) == EXIT_OK

    def test_requires_corpus(self, out_dir, tmp_path):
        assert enrich(out_dir, tmp_path) == EXIT_INPUT

    def test_requires_generator(self, out_dir, sources):
        a, b = sources
        assert ingest(out_dir, a, b) == EXIT_OK
        assert main(["enrich", "--out-dir", str(out_dir)]) == EXIT_CONFIG

    def test_exhausted_script_is_backend_error(self, out_dir, sources, tmp_path):
        a, b = sources
        assert ingest(out_dir, a, b) == EXIT_OK
        assert enrich(out_dir, tmp_path, purposes=("only one",)) == EXIT_BACKEND

    def test_interrupted_enrich_resumes_to_the_same_artifacts(self, out_dir, sources, tmp_path):
        a, b = sources
        whole = tmp_path / "whole"
        assert ingest(whole, a, b) == EXIT_OK
        assert enrich(whole, tmp_path) == EXIT_OK

        assert ingest(out_dir, a, b) == EXIT_OK
        # the script runs out on the third table, after two records reached the journal
        assert enrich(out_dir, tmp_path, purposes=("city list", "museum list")) == EXIT_BACKEND
        journal = out_dir / "enriched.json.journal"
        lines = journal.read_bytes().split(b"\n")
        assert not (out_dir / "enriched.json").exists() and len(lines) == 4  # header, 2 records, ""
        # a kill mid-way through the second record: that table is asked for again
        journal.write_bytes(b"\n".join(lines[:2]) + b"\n" + lines[2][:20])
        # exactly the three remaining purposes; a fourth call would exit 4
        assert enrich(out_dir, tmp_path, purposes=("museum list", "pairs", "more pairs")) == EXIT_OK
        for name in ("enriched.json", "index.npz"):
            assert (out_dir / name).read_bytes() == (whole / name).read_bytes()
        assert list(out_dir.glob("*.journal")) == []

    def test_journal_record_holding_a_paragraph_separator_replays_after_a_kill(self, out_dir, sources, tmp_path):
        a, b = sources
        purposes = ("city\u2029list", "museum\x85list", "pairs", "more pairs")
        whole = tmp_path / "whole"
        assert ingest(whole, a, b) == EXIT_OK
        assert enrich(whole, tmp_path, purposes=purposes) == EXIT_OK

        assert ingest(out_dir, a, b) == EXIT_OK
        # the script runs out on the third table, after two records reached the journal
        assert enrich(out_dir, tmp_path, purposes=purposes[:2]) == EXIT_BACKEND
        journal = out_dir / "enriched.json.journal"
        held = journal.read_bytes()
        assert held.count(b"\n") == 3 and "\u2029".encode("utf-8") in held  # written raw, not escaped
        # a kill mid-way through a third record
        journal.write_bytes(held + b'{"purpose": "pai')
        # exactly the two remaining purposes; a third call would exit 4
        assert enrich(out_dir, tmp_path, purposes=purposes[2:]) == EXIT_OK
        for name in ("enriched.json", "index.npz"):
            assert (out_dir / name).read_bytes() == (whole / name).read_bytes()
        assert list(out_dir.glob("*.journal")) == []

    @pytest.mark.parametrize("store_kept", [False, True], ids=["before-compaction", "before-delete"])
    def test_leftover_journal_is_compacted_without_calls(self, out_dir, sources, tmp_path, store_kept):
        a, b = sources
        assert ingest(out_dir, a, b) == EXIT_OK
        assert enrich(out_dir, tmp_path) == EXIT_OK
        store = out_dir / "enriched.json"
        before = store.read_bytes()
        # a kill after every record reached the journal
        lines = [json.dumps({"version": FORMAT_VERSION})] + [
            json.dumps({"table_id": table_id, **entry})
            for table_id, entry in json.loads(before)["entries"].items()
        ]
        (out_dir / "enriched.json.journal").write_text("\n".join(lines) + "\n", encoding="utf-8")
        if not store_kept:
            store.unlink()
        assert enrich(out_dir, tmp_path, purposes=()) == EXIT_OK
        assert store.read_bytes() == before
        assert list(out_dir.glob("*.journal")) == []

    def test_table_dropped_from_the_corpus_leaves_the_index(self, out_dir, tmp_path):
        src = tmp_path / "src"
        src.mkdir()
        (src / "a.csv").write_text("n\n1\n2\n")
        b_rows = "city\nBern\nOslo\n"
        (src / "b.csv").write_text(b_rows)
        assert main(["ingest", "--out-dir", str(out_dir), str(src)]) == EXIT_OK
        assert enrich(out_dir, tmp_path, purposes=("numbers", "city names")) == EXIT_OK
        both = (out_dir / "index.npz").read_bytes()

        (src / "b.csv").unlink()
        assert main(["ingest", "--out-dir", str(out_dir), str(src)]) == EXIT_OK
        assert enrich(out_dir, tmp_path, purposes=()) == EXIT_OK
        assert DenseIndex.load(out_dir / "index.npz").ids == ("a",)
        assert main(["cache", "--out-dir", str(out_dir)]) == EXIT_OK
        queries = tmp_path / "queries.jsonl"
        write_jsonl(queries, [{"query_id": "q", "question": "city names Bern Oslo"}])
        argv = ["retrieve", "--out-dir", str(out_dir), "--queries", str(queries), "--fallback-only"]
        assert main(argv) == EXIT_OK
        assert read_results(out_dir)[0]["topk"] == ["a"]

        # the store kept b's purpose, so adding b back costs no call
        (src / "b.csv").write_text(b_rows)
        assert main(["ingest", "--out-dir", str(out_dir), str(src)]) == EXIT_OK
        assert enrich(out_dir, tmp_path, purposes=()) == EXIT_OK
        assert (out_dir / "index.npz").read_bytes() == both

    def test_prints_the_number_of_tables_the_index_holds(self, out_dir, tmp_path, capsys):
        src = tmp_path / "src"
        src.mkdir()
        (src / "a.csv").write_text("n\n1\n2\n")
        (src / "b.csv").write_text("city\nBern\nOslo\n")
        assert main(["ingest", "--out-dir", str(out_dir), str(src)]) == EXIT_OK
        assert enrich(out_dir, tmp_path, purposes=("numbers", "city names")) == EXIT_OK
        assert f"enriched 2 tables -> {out_dir / 'index.npz'}" in capsys.readouterr().out
        (src / "b.csv").unlink()
        assert main(["ingest", "--out-dir", str(out_dir), str(src)]) == EXIT_OK
        assert enrich(out_dir, tmp_path, purposes=()) == EXIT_OK
        # the store keeps b, but the index holds only a
        assert f"enriched 1 tables -> {out_dir / 'index.npz'}" in capsys.readouterr().out
        assert DenseIndex.load(out_dir / "index.npz").ids == ("a",)

    def test_texts_hold_the_sample_size_the_selection_prompt_states(self, out_dir, tmp_path):
        src = tmp_path / "src"
        src.mkdir()
        (src / "long.csv").write_text("n\n" + "".join(f"{i}\n" for i in range(8)))
        (src / "short.csv").write_text("n\n1\n2\n")
        assert main(["ingest", "--out-dir", str(out_dir), str(src)]) == EXIT_OK
        assert enrich(out_dir, tmp_path, purposes=("p", "q")) == EXIT_OK
        assert "(5 rows)" in SELECTION_PROMPT_TEMPLATE
        entries = json.loads((out_dir / "enriched.json").read_text())["entries"]
        for table_id, rows in (("long", 8), ("short", 2)):
            text = entries[table_id]["text"]
            data_rows = [line for line in text.splitlines() if line.startswith("| ")]
            assert len(data_rows) == min(5, rows)


class TestCache:
    def test_builds_and_rebuilds_identically(self, out_dir, sources):
        a, b = sources
        assert ingest(out_dir, a, b) == EXIT_OK
        assert main(["cache", "--out-dir", str(out_dir)]) == EXIT_OK
        path = out_dir / "compat_cache.json"
        first = path.read_bytes()
        assert main(["cache", "--out-dir", str(out_dir)]) == EXIT_OK
        assert path.read_bytes() == first
        edges = json.loads(first)["edges"]
        # city_id foreign key
        assert [row[1:] for row in edges if row[1] == "cities" and row[3] == "museums"] == [
            ["cities", "city_id", "museums", "city_id"]
        ]

    def test_requires_corpus(self, out_dir):
        assert main(["cache", "--out-dir", str(out_dir)]) == EXIT_INPUT

    def test_cache_of_the_pair_key_layout_is_refused_naming_edges(self, out_dir, sources, tmp_path, capsys):
        build_all(out_dir, tmp_path, *sources)
        path = out_dir / "compat_cache.json"
        data = json.loads(path.read_text(encoding="utf-8"))
        del data["edges"]
        data["pairs"] = {"cities|museums": {"cs": 0.8, "join": ["cities.city_id", "museums.city_id"]}}
        path.write_text(json.dumps(data), encoding="utf-8")
        queries = tmp_path / "queries.jsonl"
        write_jsonl(queries, [{"query_id": "q1", "question": "museums per city"}])
        argv = ["retrieve", "--out-dir", str(out_dir), "--queries", str(queries), "--fallback-only"]
        assert main(argv) == EXIT_INPUT
        assert f"{path}: missing field 'edges'" in capsys.readouterr().err

    def test_pipe_in_a_table_name_is_kept_by_every_command(self, out_dir, tmp_path):
        source = tmp_path / "pipes"
        source.mkdir()
        (source / "a|b.csv").write_text("id,name\n1,Ada\n2,Bo\n", encoding="utf-8")
        (source / "c.csv").write_text("c_id,id\n7,1\n8,2\n9,1\n", encoding="utf-8")
        assert main(["ingest", "--out-dir", str(out_dir), f"s={source}"]) == EXIT_OK
        assert enrich(out_dir, tmp_path, purposes=("people", "visits")) == EXIT_OK
        assert main(["cache", "--out-dir", str(out_dir)]) == EXIT_OK
        tables = json.loads((out_dir / "corpus.json").read_text(encoding="utf-8"))["tables"]
        assert [t["id"] for t in tables] == ["a|b", "c"]
        assert set(json.loads((out_dir / "enriched.json").read_text(encoding="utf-8"))["entries"]) == {"a|b", "c"}
        edges = json.loads((out_dir / "compat_cache.json").read_text(encoding="utf-8"))["edges"]
        assert [row[1:] for row in edges] == [["a|b", "id", "c", "id"]]
        queries = tmp_path / "queries.jsonl"
        write_jsonl(queries, [{"query_id": "q1", "question": "visits per person"}])
        assert retrieve(out_dir, queries, tmp_path, [selection_json([0, 1])]) == EXIT_OK
        (record,) = read_results(out_dir)
        assert sorted(record["topk"]) == sorted(record["final"]) == ["a|b", "c"]

    def test_clean_rerun_writes_no_embedding_cache_file(self, out_dir, sources, tmp_path):
        a, b = sources
        build_all(out_dir, tmp_path, a, b)
        files = sorted(p.name for p in out_dir.iterdir())
        # enrich's vectors are in the index, so cache wrote the column vectors as segment 0
        segments = sorted(out_dir.glob("embedding_cache.npz*"))
        assert [p.name for p in segments] == ["embedding_cache.npz"]
        before = [(p.read_bytes(), p.stat().st_mtime_ns) for p in segments]
        assert enrich(out_dir, tmp_path, purposes=()) == EXIT_OK
        assert main(["cache", "--out-dir", str(out_dir)]) == EXIT_OK
        assert sorted(p.name for p in out_dir.iterdir()) == files
        assert [(p.read_bytes(), p.stat().st_mtime_ns) for p in segments] == before

    @pytest.mark.parametrize("cell", [5, 1.5, True, ["x"], {"x": 1}], ids=["int", "float", "bool", "list", "object"])
    def test_cell_that_is_not_text_or_null_is_input_error(self, out_dir, sources, capsys, cell):
        a, b = sources
        assert ingest(out_dir, a, b) == EXIT_OK
        path = out_dir / "corpus.json"
        data = json.loads(path.read_text(encoding="utf-8"))
        table = data["tables"][0]
        table["values"][1][1] = cell  # column 2, row 2
        path.write_text(json.dumps(data), encoding="utf-8")
        assert main(["cache", "--out-dir", str(out_dir)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert str(path) in err and repr(table["id"]) in err and repr(table["columns"][1]) in err
        assert "row 2" in err and "Traceback" not in err

    def test_cell_holding_a_lone_surrogate_is_input_error(self, out_dir, sources, tmp_path, capsys):
        a, b = sources
        assert ingest(out_dir, a, b) == EXIT_OK
        path = out_dir / "corpus.json"
        data = json.loads(path.read_text(encoding="utf-8"))
        data["tables"][0]["values"][1][1] = "\ud800"
        path.write_text(json.dumps(data), encoding="utf-8")  # ASCII, with the escape "\\ud800"
        assert enrich(out_dir, tmp_path) == EXIT_INPUT
        err = capsys.readouterr().err
        assert str(path) in err and "lone surrogate" in err and "Traceback" not in err
        assert not (out_dir / "enriched.json.journal").exists()

    @pytest.mark.parametrize("row", ["1,2", {"a": "1"}, None], ids=["string", "object", "null"])
    def test_row_that_is_not_a_list_is_input_error(self, out_dir, sources, tmp_path, capsys, row):
        # corpus.json holds a table by column, so the list that is not one is a column's values
        a, b = sources
        assert ingest(out_dir, a, b) == EXIT_OK
        path = out_dir / "corpus.json"
        data = json.loads(path.read_text(encoding="utf-8"))
        table = data["tables"][0]
        table["values"][0] = row
        path.write_text(json.dumps(data), encoding="utf-8")
        assert enrich(out_dir, tmp_path) == EXIT_INPUT
        err = capsys.readouterr().err
        columns = len(table["columns"])
        assert str(path) in err and f"table {table['id']!r} values are not one list for each of its {columns}" in err
        assert "Traceback" not in err and not (out_dir / "enriched.json").exists()

    def test_column_name_that_is_not_text_is_input_error(self, out_dir, sources, capsys):
        a, b = sources
        assert ingest(out_dir, a, b) == EXIT_OK
        path = out_dir / "corpus.json"
        data = json.loads(path.read_text(encoding="utf-8"))
        data["tables"][0]["columns"][0] = 5
        path.write_text(json.dumps(data), encoding="utf-8")
        assert main(["cache", "--out-dir", str(out_dir)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert str(path) in err and repr(data["tables"][0]["id"]) in err


class Interrupted(Exception):
    """Stands for a process killed between two steps of a command."""


@pytest.fixture()
def embedded(monkeypatch):
    """The texts the stub embedder is asked for, batch by batch."""
    batches = []
    real = HashingEmbedder.embed_many

    def recording(self, texts):
        batches.append(list(texts))
        return real(self, texts)

    monkeypatch.setattr(HashingEmbedder, "embed_many", recording)
    return batches


def stored_vectors(out_dir):
    """(index entries, segment entries), each text key -> vector bytes."""
    index = DenseIndex.load(out_dir / "index.npz")
    indexed = {key: row.tobytes() for key, row in zip(index.keys, index.vectors)}
    segments = {}
    for path in sorted(out_dir.glob("embedding_cache.npz*")):
        _, keys, vectors = read_npz(path, "embedding cache", None, "keys")
        assert not segments.keys() & keys
        segments.update((key, row.tobytes()) for key, row in zip(keys, vectors))
    return indexed, segments


class TestVectorsStoredOnce:
    def test_index_and_segments_hold_the_whole_cache_once(self, out_dir, sources, tmp_path):
        build_all(out_dir, tmp_path, *sources)
        indexed, segments = stored_vectors(out_dir)
        assert not indexed.keys() & segments.keys()
        # the cache that a build kept whole in its segments before: every
        # table text and the header of every column that a blocked pair
        # names, each embedded once; museums.name, cities.city, both code
        # columns and shared__2.v pair with nothing
        stub = HashingEmbedder()
        entries = json.loads((out_dir / "enriched.json").read_text(encoding="utf-8"))["entries"]
        tables = [entry["text"] for entry in entries.values()]
        headers = ["cities.city_id", "museums.museum_id", "museums.city_id", "shared.v"]
        whole = {text_key(text): stub.embed(text).tobytes() for text in tables + headers}
        assert {**indexed, **segments} == whole
        assert set(indexed) == set(map(text_key, tables))

    def test_table_dropped_then_added_back_costs_no_embed_call(self, out_dir, tmp_path, embedded):
        src = tmp_path / "src"
        src.mkdir()
        (src / "a.csv").write_text("n\n1\n2\n")
        b_rows = "city\nBern\nOslo\n"
        (src / "b.csv").write_text(b_rows)
        assert main(["ingest", "--out-dir", str(out_dir), str(src)]) == EXIT_OK
        assert enrich(out_dir, tmp_path, purposes=("numbers", "city names")) == EXIT_OK
        assert main(["cache", "--out-dir", str(out_dir)]) == EXIT_OK
        b_key = text_key(json.loads((out_dir / "enriched.json").read_text(encoding="utf-8"))["entries"]["b"]["text"])

        (src / "b.csv").unlink()
        assert main(["ingest", "--out-dir", str(out_dir), str(src)]) == EXIT_OK
        assert enrich(out_dir, tmp_path, purposes=()) == EXIT_OK
        indexed, segments = stored_vectors(out_dir)
        assert b_key not in indexed and b_key in segments  # the index dropped b, a segment keeps it

        embedded.clear()
        (src / "b.csv").write_text(b_rows)
        assert main(["ingest", "--out-dir", str(out_dir), str(src)]) == EXIT_OK
        assert enrich(out_dir, tmp_path, purposes=()) == EXIT_OK
        assert main(["cache", "--out-dir", str(out_dir)]) == EXIT_OK
        assert embedded == []
        indexed, segments = stored_vectors(out_dir)
        assert indexed[b_key] == segments[b_key]  # held twice, with one vector

    def test_kill_between_index_and_cache_saves_loses_no_held_vector(
        self, out_dir, sources, tmp_path, monkeypatch, embedded
    ):
        a, b = sources
        build_all(out_dir, tmp_path, a, b)
        (b / "parks.csv").write_text("park,city_id\nAare,1\nFrogner,2\n")
        assert ingest(out_dir, a, b) == EXIT_OK
        save = CachingEmbedder.save

        def killed(self):
            raise Interrupted

        monkeypatch.setattr(CachingEmbedder, "save", killed)
        embedded.clear()
        with pytest.raises(Interrupted):
            enrich(out_dir, tmp_path, purposes=("park list",))
        monkeypatch.setattr(CachingEmbedder, "save", save)
        parks = json.loads((out_dir / "enriched.json").read_text(encoding="utf-8"))["entries"]["parks"]["text"]
        assert embedded == [[parks]]
        assert "parks" in DenseIndex.load(out_dir / "index.npz").ids

        embedded.clear()
        assert enrich(out_dir, tmp_path, purposes=()) == EXIT_OK
        assert embedded == []
        assert main(["cache", "--out-dir", str(out_dir)]) == EXIT_OK
        assert embedded == [["parks.city_id"]]  # parks.park pairs with nothing

    def test_no_joinable_column_writes_no_segment(self, out_dir, tmp_path, embedded):
        src = tmp_path / "src"
        src.mkdir()
        (src / "a.csv").write_text("n,label\n1,one\n2,two\n")
        (src / "b.csv").write_text("city\nBern\nOslo\n")
        assert main(["ingest", "--out-dir", str(out_dir), str(src)]) == EXIT_OK
        assert enrich(out_dir, tmp_path, purposes=("numbers", "city names")) == EXIT_OK
        embedded.clear()
        assert main(["cache", "--out-dir", str(out_dir)]) == EXIT_OK
        assert embedded == []
        assert sorted(out_dir.glob("embedding_cache.npz*")) == []

    def test_grown_pool_embeds_an_old_header_a_new_table_pairs(self, out_dir, tmp_path, embedded):
        """customers.customer_id pairs with nothing until orders arrives: the
        next cache embeds it then, once, and writes the cold build's cache."""
        src = tmp_path / "src"
        src.mkdir()
        (src / "customers.csv").write_text("customer_id,name\n1,Ada\n2,Bo\n3,Cy\n")
        (src / "notes.csv").write_text("note\nfirst\nsecond\n")
        assert main(["ingest", "--out-dir", str(out_dir), str(src)]) == EXIT_OK
        assert enrich(out_dir, tmp_path, purposes=("customers", "notes")) == EXIT_OK
        embedded.clear()
        assert main(["cache", "--out-dir", str(out_dir)]) == EXIT_OK
        assert embedded == []

        (src / "orders.csv").write_text("order_id,customer_id\n100,1\n101,2\n102,1\n")
        assert main(["ingest", "--out-dir", str(out_dir), str(src)]) == EXIT_OK
        assert enrich(out_dir, tmp_path, purposes=("orders",)) == EXIT_OK
        embedded.clear()
        assert main(["cache", "--out-dir", str(out_dir)]) == EXIT_OK
        assert embedded == [["customers.customer_id", "orders.customer_id"]]
        _, segments = stored_vectors(out_dir)
        assert set(segments) == {text_key("customers.customer_id"), text_key("orders.customer_id")}

        cold = tmp_path / "cold"
        assert main(["ingest", "--out-dir", str(cold), str(src)]) == EXIT_OK
        assert enrich(cold, tmp_path, purposes=("customers", "notes", "orders")) == EXIT_OK
        assert main(["cache", "--out-dir", str(cold)]) == EXIT_OK
        cached = (out_dir / "compat_cache.json").read_bytes()
        assert cached == (cold / "compat_cache.json").read_bytes()
        assert json.loads(cached)["edges"][0][1:] == ["customers", "customer_id", "orders", "customer_id"]


# ---------------------------------------------------------------------------
# retrieve
# ---------------------------------------------------------------------------


@pytest.fixture()
def built(out_dir, sources, tmp_path):
    a, b = sources
    build_all(out_dir, tmp_path, a, b)
    queries = tmp_path / "queries.jsonl"
    write_jsonl(
        queries,
        [
            {"query_id": "q1", "question": "how many museums per city"},
            {"query_id": "q2", "question": "shared codes"},
        ],
    )
    return out_dir, queries


def retrieve(out_dir, queries, tmp_path, responses, *extra):
    spec = f"scripted:{scripted_file(tmp_path, responses, 'selections.json')}"
    return main(
        ["retrieve", "--out-dir", str(out_dir), "--queries", str(queries), "--generator", spec]
        + list(extra)
    )


def read_results(out_dir):
    # a line ends at "\n" alone: str.splitlines() would also break at U+0085, U+2028 and U+2029
    lines = (out_dir / "results.jsonl").read_text(encoding="utf-8").split("\n")
    return [json.loads(line) for line in lines if line]


class TestRetrieve:
    def test_writes_one_record_per_query(self, built, tmp_path):
        out_dir, queries = built
        code = retrieve(
            out_dir, queries, tmp_path, [selection_json([0, 1]), selection_json([0])]
        )
        assert code == EXIT_OK
        records = read_results(out_dir)
        assert [r["query_id"] for r in records] == ["q1", "q2"]
        for r in records:
            assert not r["fallback_used"]
            assert set(r["final"]) <= set(r["topk"])
            assert len(r["topk"]) == 4
            assert r["input_tokens"] > 0

    def test_malformed_response_falls_back(self, built, tmp_path):
        out_dir, queries = built
        code = retrieve(out_dir, queries, tmp_path, ["not json", selection_json([0])])
        assert code == EXIT_OK
        records = read_results(out_dir)
        assert records[0]["fallback_used"] is True
        assert records[0]["final"] == records[0]["topk"]
        assert records[1]["fallback_used"] is False

    def test_fallback_only_needs_no_generator(self, built):
        out_dir, queries = built
        code = main(
            [
                "retrieve",
                "--out-dir",
                str(out_dir),
                "--queries",
                str(queries),
                "--fallback-only",
            ]
        )
        assert code == EXIT_OK
        for r in read_results(out_dir):
            assert r["fallback_used"] is True
            assert r["final"] == r["topk"]
            assert r["selected"] == []

    def test_does_not_read_the_embedding_cache(self, built):
        out_dir, queries = built
        segments = sorted(out_dir.glob("embedding_cache.npz*"))
        assert segments  # the column headers the build embedded
        for segment in segments:
            segment.write_bytes(b"torn")
        argv = ["retrieve", "--out-dir", str(out_dir), "--queries", str(queries), "--fallback-only"]
        assert main(argv) == EXIT_OK
        assert [segment.read_bytes() for segment in segments] == [b"torn"] * len(segments)

    def test_results_file_is_pinned(self, built, tmp_path):
        # one pick that restores a neighbour ranked above it, a reply with no
        # JSON object, an empty pick, and a script that runs out (a
        # BackendError); then the dense baseline. The expected bytes are the
        # program's own output, kept so that a refactor shows any byte it moves.
        out_dir, _ = built
        queries = tmp_path / "pinned.jsonl"
        write_jsonl(
            queries,
            [
                {"query_id": "pick", "question": "city names"},
                {"query_id": "no-json", "question": "shared codes"},
                {"query_id": "empty", "question": "museums per city"},
                {"query_id": "exhausted", "question": "museum names"},
            ],
        )
        topks = {
            "pick": '["cities", "museums", "shared", "shared__2"]',
            "no-json": '["shared__2", "shared", "cities", "museums"]',
            "empty": '["museums", "cities", "shared__2", "shared"]',
            "exhausted": '["museums", "cities", "shared", "shared__2"]',
        }

        def line(qid, selected, restored, final, fallback, tokens):
            return (
                f'{{"query_id": "{qid}", "topk": {topks[qid]}, "selected": {selected}, '
                f'"restored": {restored}, "final": {final}, "fallback_used": {fallback}, '
                f'"input_tokens": {tokens[0]}, "output_tokens": {tokens[1]}}}\n'
            )

        def fallback(qid, tokens=(0, 0)):
            return line(qid, "[]", "[]", topks[qid], "true", tokens)

        replies = [selection_json([1]), "no object here", selection_json([])]
        assert retrieve(out_dir, queries, tmp_path, replies) == EXIT_OK
        assert (out_dir / "results.jsonl").read_text(encoding="utf-8") == "".join(
            [
                line("pick", '["museums"]', '["cities"]', '["cities", "museums"]', "false", (1091, 9)),
                fallback("no-json", (1091, 3)),
                fallback("empty", (1092, 9)),
                fallback("exhausted"),
            ]
        )
        argv = ["retrieve", "--out-dir", str(out_dir), "--queries", str(queries), "--fallback-only"]
        assert main(argv) == EXIT_OK
        assert (out_dir / "results.jsonl").read_text(encoding="utf-8") == "".join(
            fallback(qid) for qid in topks
        )

    def test_k_limits_candidates(self, built, tmp_path):
        out_dir, queries = built
        code = retrieve(
            out_dir, queries, tmp_path, [selection_json([0]), selection_json([0])], "--k", "2"
        )
        assert code == EXIT_OK
        assert all(len(r["topk"]) == 2 for r in read_results(out_dir))

    def test_embedder_mismatch_is_backend_error(self, built, tmp_path):
        out_dir, queries = built
        code = retrieve(
            out_dir, queries, tmp_path, [selection_json([0])], "--embedder", "stub:64"
        )
        assert code == EXIT_BACKEND

    def test_http_embedder_of_another_width_is_backend_error(
        self, out_dir, sources, tmp_path, monkeypatch, capsys
    ):
        width = 4

        def transport(url, payload, headers, timeout):
            vector = [float(len(payload["input"]) % 7 + i) for i in range(width)]
            return 200, {"embedding": vector}

        monkeypatch.setattr(
            cli, "HttpEmbeddingClient", functools.partial(HttpEmbeddingClient, transport=transport)
        )
        spec = ["--embedder", "http:http://svc,m"]
        a, b = sources
        assert ingest(out_dir, a, b) == EXIT_OK
        purposes = scripted_file(tmp_path, ["p1", "p2", "p3", "p4"], "purposes.json")
        enrich_args = ["enrich", "--out-dir", str(out_dir), "--generator", f"scripted:{purposes}"]
        assert main(enrich_args + spec) == EXIT_OK
        assert main(["cache", "--out-dir", str(out_dir)] + spec) == EXIT_OK
        assert DenseIndex.load(out_dir / "index.npz", "http:m").dimension == 4
        width = 3  # the transport reads it at each call
        queries = tmp_path / "queries.jsonl"
        write_jsonl(queries, [{"query_id": "q", "question": "museums"}])
        capsys.readouterr()
        retrieve_args = ["retrieve", "--out-dir", str(out_dir), "--queries", str(queries)]
        assert main(retrieve_args + ["--fallback-only"] + spec) == EXIT_BACKEND
        err = capsys.readouterr().err
        assert "width 3" in err and "width 4" in err

    def test_requires_index(self, out_dir, sources, tmp_path):
        a, b = sources
        assert ingest(out_dir, a, b) == EXIT_OK
        queries = tmp_path / "queries.jsonl"
        write_jsonl(queries, [{"query_id": "q", "question": "x"}])
        assert retrieve(out_dir, queries, tmp_path, []) == EXIT_INPUT

    def test_missing_queries_file(self, built, tmp_path):
        out_dir, _ = built
        code = retrieve(out_dir, tmp_path / "absent.jsonl", tmp_path, [])
        assert code == EXIT_INPUT

    @pytest.mark.parametrize("content", ["", "\n  \n"], ids=["empty", "blank-lines"])
    def test_queries_file_without_a_query_is_input_error(self, built, tmp_path, capsys, content):
        out_dir, _ = built
        queries = tmp_path / "empty.jsonl"
        queries.write_text(content, encoding="utf-8")
        assert retrieve(out_dir, queries, tmp_path, []) == EXIT_INPUT
        assert f"queries file {queries} holds no queries" in capsys.readouterr().err
        assert not (out_dir / "results.jsonl").exists()

    def test_invalid_tau_and_k(self, built, tmp_path):
        out_dir, queries = built
        assert retrieve(out_dir, queries, tmp_path, [], "--tau", "1.5") == EXIT_CONFIG
        assert retrieve(out_dir, queries, tmp_path, [], "--k", "0") == EXIT_CONFIG

    @pytest.mark.parametrize("flag", [["--k", "0"], ["--tau", "-0.5"]], ids=["k", "tau"])
    def test_invalid_tau_and_k_are_refused_before_any_artifact(self, out_dir, tmp_path, capsys, flag):
        queries = tmp_path / "queries.jsonl"
        write_jsonl(queries, [{"query_id": "q", "question": "x"}])
        argv = ["retrieve", "--out-dir", str(out_dir), "--queries", str(queries), "--fallback-only"]
        assert main(argv + flag) == EXIT_CONFIG  # out_dir holds no index
        assert "configuration error" in capsys.readouterr().err

    def test_query_line_with_a_lone_surrogate_is_input_error(self, built, tmp_path, capsys):
        out_dir, _ = built
        queries = tmp_path / "surrogate.jsonl"
        # a surrogate pair is one character; a lone half is not UTF-8 text
        queries.write_text(
            '{"query_id": "q1", "question": "museums \\ud83d\\ude00"}\n'
            '{"query_id": "q2", "question": "museums \\ud83d"}\n',
            encoding="utf-8",
        )
        argv = ["retrieve", "--out-dir", str(out_dir), "--queries", str(queries), "--fallback-only"]
        assert main(argv) == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"{queries}:2" in err and "lone surrogate" in err and "Traceback" not in err
        assert not (out_dir / "results.jsonl").exists()

    @pytest.mark.parametrize(
        "record",
        [
            {"query_id": "q2", "question": ""},
            {"query_id": "q2", "question": None},
            {"query_id": "q1", "question": "museums again"},
        ],
        ids=["empty-question", "null-question", "repeated-query-id"],
    )
    def test_bad_query_line_is_input_error_naming_it(self, built, tmp_path, capsys, record):
        out_dir, _ = built
        queries = tmp_path / "bad_queries.jsonl"
        write_jsonl(queries, [{"query_id": "q1", "question": "museums"}, record])
        argv = ["retrieve", "--out-dir", str(out_dir), "--queries", str(queries), "--fallback-only"]
        assert main(argv) == EXIT_INPUT
        assert f"{queries}:2" in capsys.readouterr().err
        assert not (out_dir / "results.jsonl").exists()


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


class TestEval:
    def test_selection_metrics_report(self, built, tmp_path, capsys):
        out_dir, queries = built
        retrieve(out_dir, queries, tmp_path, [selection_json([0, 1]), selection_json([2])])
        gold = tmp_path / "gold.jsonl"
        write_jsonl(
            gold,
            [
                {"query_id": "q1", "question": "how many museums per city", "gold_tables": ["museums", "cities"]},
                {"query_id": "q2", "question": "shared codes", "gold_tables": ["shared"]},
            ],
        )
        code = main(["eval", "--out-dir", str(out_dir), "--gold", str(gold)])
        assert code == EXIT_OK
        stdout = capsys.readouterr().out
        assert "| Avg #tab. | P | R | F1 | PR |" in stdout
        report = json.loads((out_dir / "eval_report.json").read_text())
        assert report["summary"]["queries"] == 2.0
        assert {r["query_id"] for r in report["per_query"]} == {"q1", "q2"}

    @pytest.mark.parametrize("brk", ["\x85", "\u2028", "\u2029"], ids=["NEL", "LS", "PS"])
    def test_line_break_in_a_table_name_is_read_back_by_eval(self, out_dir, tmp_path, brk):
        source = tmp_path / "shop"
        source.mkdir()
        name = f"shop{brk}orders"
        (source / f"{name}.csv").write_text("order_id,total\n1,9.5\n2,12.0\n", encoding="utf-8")
        (source / "customers.csv").write_text("customer_id,order_id\n7,1\n8,2\n", encoding="utf-8")
        assert main(["ingest", "--out-dir", str(out_dir), f"shop={source}"]) == EXIT_OK
        assert enrich(out_dir, tmp_path, purposes=("people", "orders")) == EXIT_OK
        assert main(["cache", "--out-dir", str(out_dir)]) == EXIT_OK
        queries = tmp_path / "queries.jsonl"
        write_jsonl(queries, [{"query_id": "q1", "question": "order totals"}])
        argv = ["retrieve", "--out-dir", str(out_dir), "--queries", str(queries), "--fallback-only"]
        assert main(argv) == EXIT_OK
        # the id is written raw, inside the one line of the one record
        assert (out_dir / "results.jsonl").read_text(encoding="utf-8").count(brk) == 2
        (record,) = read_results(out_dir)
        assert sorted(record["final"]) == ["customers", name]
        gold = tmp_path / "gold.jsonl"
        write_jsonl(gold, [{"query_id": "q1", "question": "order totals", "gold_tables": [name]}])
        assert main(["eval", "--out-dir", str(out_dir), "--gold", str(gold)]) == EXIT_OK
        summary = json.loads((out_dir / "eval_report.json").read_text(encoding="utf-8"))["summary"]
        assert (summary["recall"], summary["precision"]) == (100.0, 50.0)

    def test_line_separator_in_a_question_is_one_line(self, built, tmp_path):
        out_dir, _ = built
        query = {"query_id": "q\u20291", "question": "museums\u2028per city"}
        queries = tmp_path / "queries.jsonl"
        gold = tmp_path / "gold.jsonl"
        queries.write_text(json.dumps(query, ensure_ascii=False) + "\n", encoding="utf-8")
        gold.write_text(json.dumps({**query, "gold_tables": ["museums"]}, ensure_ascii=False) + "\n", encoding="utf-8")
        argv = ["retrieve", "--out-dir", str(out_dir), "--queries", str(queries), "--fallback-only"]
        assert main(argv) == EXIT_OK
        assert [r["query_id"] for r in read_results(out_dir)] == ["q\u20291"]
        assert main(["eval", "--out-dir", str(out_dir), "--gold", str(gold)]) == EXIT_OK
        report = json.loads((out_dir / "eval_report.json").read_text(encoding="utf-8"))
        assert [r["query_id"] for r in report["per_query"]] == ["q\u20291"]
        assert report["summary"]["recall"] == 100.0

    def test_gold_joins_report(self, built, tmp_path, capsys):
        out_dir, _ = built
        gold_joins = tmp_path / "gold_joins.json"
        gold_joins.write_text(
            json.dumps(
                [
                    {
                        "table_a": "cities",
                        "table_b": "museums",
                        "joinable": True,
                        "gold_columns": ["city_id", "city_id"],
                    },
                    {"table_a": "cities", "table_b": "shared", "joinable": False},
                ]
            )
        )
        code = main(["eval", "--out-dir", str(out_dir), "--gold-joins", str(gold_joins)])
        assert code == EXIT_OK
        stdout = capsys.readouterr().out
        assert "joinability_accuracy" in stdout
        report = json.loads((out_dir / "compat_report.json").read_text())
        assert report["column_accuracy"] == 1.0
        assert report["pairs"] == 2.0

    def test_gold_joins_without_corpus_json_is_input_error(self, built, tmp_path, capsys):
        # without corpus.json no annotation could be checked against the tables
        out_dir, _ = built
        (out_dir / "corpus.json").unlink()
        gold_joins = tmp_path / "gold_joins.json"
        gold_joins.write_text(json.dumps([{"table_a": "nope", "table_b": "cities", "joinable": False}]))
        assert main(["eval", "--out-dir", str(out_dir), "--gold-joins", str(gold_joins)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"missing corpus.json in {out_dir} (run `ingest` first)" in err and "Traceback" not in err
        assert not (out_dir / "compat_report.json").exists()

    @pytest.mark.parametrize(
        "record, complaint",
        [
            ({"joinable": "false"}, "record 1: field 'joinable' holds str"),
            ({"joinable": None}, "record 1: field 'joinable' holds NoneType"),
            ({"table_b": 5}, "record 1: field 'table_b' holds int"),
            ({"gold_columns": ["city_id", 1]}, "record 1: gold_columns must list two column names"),
            ({"table_b": "cities"}, "record 1: table 'cities' is named twice"),
            ({}, "record 1: pair 'cities', 'museums' repeats record 0"),
            ({"table_a": "museums", "table_b": "cities"}, "record 1: pair 'museums', 'cities' repeats record 0"),
        ],
        ids=["joinable-string", "joinable-null", "numeric-table", "numeric-column", "self-pair", "repeated", "reversed"],
    )
    def test_bad_gold_join_record_is_input_error_naming_it(self, built, tmp_path, capsys, record, complaint):
        out_dir, _ = built
        gold_joins = tmp_path / "gold_joins.json"
        good = {"table_a": "cities", "table_b": "museums", "joinable": True}
        gold_joins.write_text(json.dumps([good, {**good, **record}]))
        code = main(["eval", "--out-dir", str(out_dir), "--gold-joins", str(gold_joins)])
        assert code == EXIT_INPUT
        assert f"{gold_joins} {complaint}" in capsys.readouterr().err

    def test_empty_gold_joins_list_is_input_error_naming_it(self, built, tmp_path, capsys):
        out_dir, _ = built
        gold_joins = tmp_path / "gold_joins.json"
        gold_joins.write_text("[]")
        assert main(["eval", "--out-dir", str(out_dir), "--gold-joins", str(gold_joins)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"gold joins {gold_joins} holds no records" in err and "Traceback" not in err
        assert not (out_dir / "compat_report.json").exists()

    def test_needs_a_gold_flag(self, built):
        out_dir, _ = built
        assert main(["eval", "--out-dir", str(out_dir)]) == EXIT_CONFIG

    def test_missing_gold_file(self, built, tmp_path):
        out_dir, _ = built
        code = main(["eval", "--out-dir", str(out_dir), "--gold", str(tmp_path / "no.jsonl")])
        assert code == EXIT_INPUT

    def test_results_path_override(self, built, tmp_path, capsys):
        out_dir, queries = built
        retrieve(out_dir, queries, tmp_path, [selection_json([0]), selection_json([0])])
        moved = tmp_path / "moved.jsonl"
        moved.write_bytes((out_dir / "results.jsonl").read_bytes())
        (out_dir / "results.jsonl").unlink()
        gold = tmp_path / "gold.jsonl"
        write_jsonl(
            gold,
            [
                {"query_id": "q1", "question": "how many museums per city", "gold_tables": ["cities"]},
                {"query_id": "q2", "question": "shared codes", "gold_tables": ["cities"]},
            ],
        )
        code = main(
            ["eval", "--out-dir", str(out_dir), "--gold", str(gold), "--results", str(moved)]
        )
        assert code == EXIT_OK

    @pytest.mark.parametrize(
        "gold_tables, final",
        [("cities", ["cities"]), (None, ["cities"]), (["cities"], "cities")],
        ids=["gold-tables-string", "gold-tables-null", "final-string"],
    )
    def test_bad_gold_or_results_line_is_input_error_naming_it(
        self, built, tmp_path, capsys, gold_tables, final
    ):
        out_dir, _ = built
        gold = tmp_path / "gold.jsonl"
        write_jsonl(
            gold,
            [
                {"query_id": "q1", "question": "how many museums per city", "gold_tables": ["cities"]},
                {"query_id": "q2", "question": "shared codes", "gold_tables": gold_tables},
            ],
        )
        results = tmp_path / "results.jsonl"
        write_jsonl(
            results,
            [{"query_id": "q1", "final": ["cities"]}, {"query_id": "q2", "final": final}],
        )
        argv = ["eval", "--out-dir", str(out_dir), "--gold", str(gold), "--results", str(results)]
        assert main(argv) == EXIT_INPUT
        bad = results if final == "cities" else gold
        assert f"{bad}:2" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# e2e
# ---------------------------------------------------------------------------


def world_db(tmp_path):
    db = tmp_path / "world.sqlite"
    conn = sqlite3.connect(db)
    conn.executescript(
        """
        CREATE TABLE museums (museum_id INTEGER, name TEXT, city_id INTEGER);
        INSERT INTO museums VALUES (1,'City Museum',1),(2,'Art House',2),
                                   (3,'Rail Museum',1),(4,'Sea Museum',3);
        CREATE TABLE cities (city_id INTEGER, city TEXT);
        INSERT INTO cities VALUES (1,'Bern'),(2,'Oslo'),(3,'Rome');
        """
    )
    conn.commit()
    conn.close()
    return db


class TestE2E:
    def test_full_run(self, built, tmp_path, capsys):
        out_dir, _ = built
        db = world_db(tmp_path)
        gold = tmp_path / "gold.jsonl"
        gold_sql = "SELECT count(*) FROM museums"
        write_jsonl(
            gold,
            [
                {
                    "query_id": "q1",
                    "question": "how many museums are there",
                    "gold_tables": ["museums"],
                    "gold_sql": gold_sql,
                }
            ],
        )
        # the script serves selection and SQL calls in turn
        spec = f"scripted:{scripted_file(tmp_path, [selection_json([0]), gold_sql])}"
        code = main(
            [
                "e2e",
                "--out-dir",
                str(out_dir),
                "--gold",
                str(gold),
                "--db",
                str(db),
                "--generator",
                spec,
            ]
        )
        assert code == EXIT_OK
        stdout = capsys.readouterr().out
        assert "estimated cost: $" in stdout
        report = json.loads((out_dir / "e2e_report.json").read_text())
        assert report["execution"]["em_all"] == 100.0
        assert set(report["cost"]["stages"]) == {"selection", "sql"}
        assert report["cost"]["dollars"] > 0.0
        assert report["selection"]["queries"] == 1.0
        records = read_results(out_dir)
        assert records[0]["query_id"] == "q1"

    def test_sql_backend_error_is_a_per_query_outcome(self, built, tmp_path):
        out_dir, _ = built
        db = world_db(tmp_path)
        gold = tmp_path / "gold.jsonl"
        gold_sql = "SELECT count(*) FROM museums"
        write_jsonl(
            gold,
            [
                {"query_id": q, "question": "how many museums", "gold_tables": ["museums"],
                 "gold_sql": gold_sql}
                for q in ("q1", "q2")
            ],
        )
        # the script runs out on the second query's SQL call
        spec = f"scripted:{scripted_file(tmp_path, [selection_json([0]), gold_sql, selection_json([0])])}"
        code = main(
            ["e2e", "--out-dir", str(out_dir), "--gold", str(gold), "--db", str(db), "--generator", spec]
        )
        assert code == EXIT_OK
        assert [r["query_id"] for r in read_results(out_dir)] == ["q1", "q2"]
        report = json.loads((out_dir / "e2e_report.json").read_text())
        assert report["execution"]["queries"] == 2.0
        assert report["execution"]["em_all"] == 50.0
        assert report["selection"]["queries"] == 2.0

    @pytest.mark.parametrize("flag", ["--input-rate", "--output-rate"])
    @pytest.mark.parametrize("rate", ["nan", "inf", "-inf", "-1"])
    def test_rate_that_is_negative_or_not_finite_is_refused_before_anything_is_read(self, tmp_path, capsys, flag, rate):
        # NaN and infinities have no JSON form, and a negative rate prices a
        # run below nothing; none of the paths exists, and none is made
        missing = tmp_path / "missing"
        argv = [
            "e2e", "--out-dir", str(missing / "run"), "--gold", str(missing / "gold.jsonl"),
            "--db", str(missing / "db.sqlite"), "--generator", f"scripted:{missing / 'replies.json'}",
            f"{flag}={rate}",
        ]
        assert main(argv) == EXIT_CONFIG
        assert f"must be a finite number of at least 0, got {float(rate)}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_rate_overrides_change_cost(self, built, tmp_path):
        out_dir, _ = built
        db = tmp_path / "tiny.sqlite"
        sqlite3.connect(db).close()
        gold = tmp_path / "gold.jsonl"
        write_jsonl(
            gold,
            [{"query_id": "q1", "question": "x", "gold_tables": ["museums"]}],
        )
        spec = f"scripted:{scripted_file(tmp_path, [selection_json([0])])}"
        code = main(
            [
                "e2e",
                "--out-dir",
                str(out_dir),
                "--gold",
                str(gold),
                "--db",
                str(db),
                "--generator",
                spec,
                "--input-rate",
                "1000000",
                "--output-rate",
                "0",
            ]
        )
        assert code == EXIT_OK
        report = json.loads((out_dir / "e2e_report.json").read_text())
        assert report["cost"]["dollars"] == report["cost"]["input_tokens"]

    @pytest.mark.parametrize(
        "record",
        [
            {"query_id": "q1", "question": "how many museums", "gold_tables": ["museums"], "gold_sql": 5},
            {"query_id": "q1", "gold_tables": ["museums"], "gold_sql": "SELECT 1"},
        ],
        ids=["gold-sql-number", "no-question"],
    )
    def test_bad_gold_line_is_input_error_naming_it(self, built, tmp_path, capsys, record):
        out_dir, _ = built
        gold = tmp_path / "gold.jsonl"
        write_jsonl(gold, [record])
        spec = f"scripted:{scripted_file(tmp_path, [selection_json([0]), 'SELECT 1'])}"
        argv = ["e2e", "--out-dir", str(out_dir), "--gold", str(gold), "--db", str(world_db(tmp_path))]
        assert main([*argv, "--generator", spec]) == EXIT_INPUT
        assert f"{gold}:1" in capsys.readouterr().err

    def test_fallback_only_runs_the_dense_baseline(self, built, tmp_path):
        out_dir, _ = built
        gold = tmp_path / "gold.jsonl"
        gold_sql = "SELECT count(*) FROM museums"
        write_jsonl(
            gold,
            [
                {"query_id": q, "question": "how many museums", "gold_tables": ["museums"],
                 "gold_sql": gold_sql}
                for q in ("q1", "q2")
            ],
        )
        # SQL replies only: the baseline makes no selection call
        spec = f"scripted:{scripted_file(tmp_path, [gold_sql, gold_sql])}"
        argv = ["e2e", "--out-dir", str(out_dir), "--gold", str(gold), "--db", str(world_db(tmp_path))]
        assert main([*argv, "--generator", spec, "--fallback-only"]) == EXIT_OK
        records = read_results(out_dir)
        assert [r["query_id"] for r in records] == ["q1", "q2"]
        for r in records:
            assert r["final"] == r["topk"]
            assert r["fallback_used"] is True
        report = json.loads((out_dir / "e2e_report.json").read_text())
        assert set(report["cost"]["stages"]) == {"sql"}
        assert report["execution"]["em_all"] == 100.0

    def test_fallback_only_answers_like_retrieve(self, built, tmp_path):
        out_dir, queries = built
        argv = ["retrieve", "--out-dir", str(out_dir), "--queries", str(queries), "--fallback-only"]
        assert main(argv) == EXIT_OK
        retrieved = (out_dir / "results.jsonl").read_bytes()
        gold = tmp_path / "gold.jsonl"
        lines = queries.read_text().splitlines()
        write_jsonl(gold, [{**json.loads(line), "gold_tables": []} for line in lines])
        spec = f"scripted:{scripted_file(tmp_path, [])}"
        argv = ["e2e", "--out-dir", str(out_dir), "--gold", str(gold), "--db", str(world_db(tmp_path))]
        assert main([*argv, "--generator", spec, "--fallback-only"]) == EXIT_OK
        assert (out_dir / "results.jsonl").read_bytes() == retrieved

    def test_selection_scores_only_gold_queries_with_tables(self, built, tmp_path):
        out_dir, _ = built
        gold = tmp_path / "gold.jsonl"
        spec = f"scripted:{scripted_file(tmp_path, [])}"
        argv = ["e2e", "--out-dir", str(out_dir), "--gold", str(gold), "--db", str(world_db(tmp_path))]
        untabled = {"query_id": "q2", "question": "anything", "gold_tables": []}
        write_jsonl(gold, [{"query_id": "q1", "question": "museums", "gold_tables": ["museums"]}, untabled])
        assert main([*argv, "--generator", spec, "--fallback-only"]) == EXIT_OK
        assert [r["query_id"] for r in read_results(out_dir)] == ["q1", "q2"]
        report = json.loads((out_dir / "e2e_report.json").read_text())
        assert report["selection"]["queries"] == 1.0
        write_jsonl(gold, [untabled])
        assert main([*argv, "--generator", spec, "--fallback-only"]) == EXIT_OK
        assert "selection" not in json.loads((out_dir / "e2e_report.json").read_text())

    def test_default_rates_price_the_tokens(self, built, tmp_path):
        out_dir, _ = built
        gold = tmp_path / "gold.jsonl"
        write_jsonl(gold, [{"query_id": "q1", "question": "x", "gold_tables": ["museums"]}])
        spec = f"scripted:{scripted_file(tmp_path, [selection_json([0])])}"
        argv = ["e2e", "--out-dir", str(out_dir), "--gold", str(gold), "--db", str(world_db(tmp_path))]
        assert main([*argv, "--generator", spec]) == EXIT_OK
        cost = json.loads((out_dir / "e2e_report.json").read_text())["cost"]
        expected = (cost["input_tokens"] * INPUT_RATE_PER_MILLION + cost["output_tokens"] * OUTPUT_RATE_PER_MILLION) / 1e6
        assert cost["dollars"] == pytest.approx(expected)

    @pytest.mark.parametrize("kind", ["missing", "not-a-database", "directory"])
    def test_unreadable_db_is_refused_before_the_first_query(self, built, tmp_path, capsys, monkeypatch, kind):
        out_dir, _ = built
        db = tmp_path / "nosuch.sqlite"
        if kind == "not-a-database":
            db.write_text("hello, this is text\n" * 10)
        elif kind == "directory":
            db.mkdir()
        gold = tmp_path / "gold.jsonl"
        write_jsonl(gold, [{"query_id": "q1", "question": "how many museums", "gold_tables": ["museums"],
                            "gold_sql": "SELECT count(*) FROM museums"}])
        generator = ScriptedGenerator(reply=lambda prompt: "SELECT 1")
        monkeypatch.setattr(cli, "parse_generator_spec", lambda spec: generator)
        argv = ["e2e", "--out-dir", str(out_dir), "--gold", str(gold), "--db", str(db), "--generator", "x"]
        assert main(argv) == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"cannot read database {db}" in err and "Traceback" not in err
        assert generator.calls == []
        assert not (out_dir / "results.jsonl").exists()

    def test_gold_file_is_read_once(self, built, tmp_path, monkeypatch):
        out_dir, _ = built
        gold = tmp_path / "gold.jsonl"
        gold_sql = "SELECT count(*) FROM museums"
        write_jsonl(gold, [{"query_id": "q1", "question": "how many museums", "gold_tables": ["museums"],
                            "gold_sql": gold_sql}])
        reads = []
        read_bytes = pathlib.Path.read_bytes

        def counting(self):
            reads.append(self)
            return read_bytes(self)

        monkeypatch.setattr(pathlib.Path, "read_bytes", counting)
        spec = f"scripted:{scripted_file(tmp_path, [selection_json([0]), gold_sql])}"
        argv = ["e2e", "--out-dir", str(out_dir), "--gold", str(gold), "--db", str(world_db(tmp_path))]
        assert main([*argv, "--generator", spec]) == EXIT_OK
        assert reads.count(gold) == 1

    def test_needs_generator(self, built, tmp_path):
        out_dir, _ = built
        gold = tmp_path / "gold.jsonl"
        write_jsonl(gold, [{"query_id": "q", "question": "x", "gold_tables": ["museums"]}])
        db = tmp_path / "d.sqlite"
        sqlite3.connect(db).close()
        argv = ["e2e", "--out-dir", str(out_dir), "--gold", str(gold), "--db", str(db)]
        assert main(argv) == EXIT_CONFIG
        # the dense baseline still needs one to write SQL
        assert main([*argv, "--fallback-only"]) == EXIT_CONFIG


@pytest.mark.parametrize(
    "lines, line",
    [
        ([{"query_id": "q1", "question": "  ", "gold_tables": ["museums"]}], 1),
        ([{"query_id": "q1", "gold_tables": ["museums"]}], 1),
        ([{"query_id": "q1", "question": "how many museums", "gold_tables": ["museums"]}] * 2, 2),
        ([{"query_id": "q1", "question": "how many museums", "gold_tables": ["museums", 5]}], 1),
    ],
    ids=["blank-question", "no-question", "repeated-query-id", "gold-table-not-a-string"],
)
def test_eval_and_e2e_refuse_a_gold_line_alike(built, tmp_path, capsys, lines, line):
    out_dir, _ = built
    gold = tmp_path / "gold.jsonl"
    write_jsonl(gold, lines)
    results = tmp_path / "results.jsonl"
    write_jsonl(results, [{"query_id": "q1", "final": ["museums"]}])
    assert main(["eval", "--out-dir", str(out_dir), "--gold", str(gold), "--results", str(results)]) == EXIT_INPUT
    eval_err = capsys.readouterr().err
    spec = f"scripted:{scripted_file(tmp_path, [selection_json([0])])}"
    argv = ["e2e", "--out-dir", str(out_dir), "--gold", str(gold), "--db", str(world_db(tmp_path))]
    assert main([*argv, "--generator", spec]) == EXIT_INPUT
    assert capsys.readouterr().err == eval_err
    assert f"{gold}:{line}: " in eval_err


@pytest.mark.parametrize(
    "argv",
    [["retrieve"], ["retrieve", "--fallback-only"], ["e2e"], ["e2e", "--fallback-only"]],
    ids=["retrieve", "retrieve-fallback-only", "e2e", "e2e-fallback-only"],
)
def test_indexed_table_without_enriched_text_is_input_error(built, tmp_path, capsys, argv):
    out_dir, queries = built
    store = out_dir / "enriched.json"
    data = json.loads(store.read_text(encoding="utf-8"))
    del data["entries"]["museums"]
    store.write_text(json.dumps(data), encoding="utf-8")
    gold_sql = "SELECT count(*) FROM museums"
    gold = tmp_path / "gold.jsonl"
    write_jsonl(gold, [{"query_id": "q1", "question": "how many museums", "gold_tables": ["museums"],
                        "gold_sql": gold_sql}])
    if argv[0] == "retrieve":
        argv = [*argv, "--queries", str(queries)]
    else:
        argv = [*argv, "--gold", str(gold), "--db", str(world_db(tmp_path))]
    if argv[0] == "e2e" or "--fallback-only" not in argv:
        spec = scripted_file(tmp_path, [selection_json([0]), selection_json([0]), gold_sql])
        argv = [*argv, "--generator", f"scripted:{spec}"]
    capsys.readouterr()
    assert main([*argv, "--out-dir", str(out_dir)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert f"{store} holds no text for indexed table 'museums' (run `enrich` again)" in err
    assert "Traceback" not in err
    assert not (out_dir / "results.jsonl").exists()


@pytest.mark.parametrize(
    "command, flags",
    [
        ("ingest", ["--embedder", "bogus"]),
        ("ingest", ["--generator", "bogus"]),
        ("ingest", ["--seed", "7"]),
        ("cache", ["--generator", "scripted:nonexistent.json"]),
        ("cache", ["--seed", "7"]),
        ("eval", ["--embedder", "stub"]),
        ("enrich", ["--seed", "7"]),
        ("enrich", ["--sample-rows", "3"]),
        ("retrieve", ["--strict-parse", "--queries", "queries.jsonl"]),
        ("ingest", ["--format", "csv-dir"]),
        ("eval", ["--joinability-threshold", "0.25"]),
        ("retrieve", ["--config", "c.json", "--queries", "queries.jsonl"]),
    ],
)
def test_flag_the_command_does_not_read_is_refused(out_dir, sources, capsys, command, flags):
    positional = [str(sources[0])] if command == "ingest" else []
    with pytest.raises(SystemExit) as exc:
        main([command, "--out-dir", str(out_dir), *flags, *positional])
    assert exc.value.code == EXIT_CONFIG
    # ingest takes a flag's value as one more source
    assert f"unrecognized arguments: {flags[0]}" in capsys.readouterr().err
    assert not out_dir.exists()


def test_config_file_flag_is_refused(built, tmp_path, capsys):
    out_dir, queries = built
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"k": 2}))
    argv = ["retrieve", "--out-dir", str(out_dir), "--queries", str(queries), "--fallback-only"]
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(config), *argv])
    assert exc.value.code == EXIT_CONFIG
    assert "invalid choice" in capsys.readouterr().err
    assert not (out_dir / "results.jsonl").exists()


@pytest.mark.parametrize("level", ["debgu", "BASIC_FORMAT", "warn", "10", ""])
def test_unknown_log_level_is_refused(built, capsys, level):
    out_dir, queries = built
    argv = ["retrieve", "--out-dir", str(out_dir), "--queries", str(queries), "--fallback-only"]
    with pytest.raises(SystemExit) as exc:
        main(["--log-level", level, *argv])
    assert exc.value.code == EXIT_CONFIG
    assert "--log-level: invalid choice" in capsys.readouterr().err
    assert not (out_dir / "results.jsonl").exists()


def test_log_level_is_read_in_any_case(built):
    out_dir, queries = built
    argv = ["retrieve", "--out-dir", str(out_dir), "--queries", str(queries), "--fallback-only"]
    assert main(["--log-level", "debug", *argv]) == EXIT_OK


@pytest.mark.parametrize("command", ["retrieve", "e2e"])
def test_help_shows_the_defaults(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == EXIT_OK
    text = " ".join(capsys.readouterr().out.split())
    for default in ("stub", DEFAULT_TOP_K, DEFAULT_RESTORE_THRESHOLD):
        assert f"(default {default})" in text
