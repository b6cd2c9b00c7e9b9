"""Artifacts on disk: torn, wrong-version or foreign-backend files are refused
with a clean exit naming the file, and a failed write leaves the old file."""

from __future__ import annotations

import hashlib
import io
import json
import os
import re
import types
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tablescout import artifacts
from tablescout.artifacts import (
    FORMAT_VERSION,
    NPZ_LEVEL,
    append_journal,
    open_journal,
    read_journal,
    read_jsonl,
    read_npz,
    read_npz_keys,
    replacing,
    segments,
    write_npz,
)
from tablescout.cli import EXIT_BACKEND, EXIT_INPUT, EXIT_OK, main
from tablescout.compatibility import CompatibilityCache
from tablescout.corpus import Table, TableCorpus, load_corpus, save_corpus
from tablescout.errors import BackendError, CorpusError
from tablescout.indexing import DenseIndex, EnrichmentStore
from tablescout.services import MAX_CACHE_SEGMENTS, CachingEmbedder, HashingEmbedder

# the index holds the table-text vectors; the column-header vectors of the
# two builds of the grown source are segment 0 and segment 1
CACHE = "embedding_cache.npz"
ARTIFACTS = ["corpus.json", "enriched.json", CACHE, f"{CACHE}.1", "index.npz", "compat_cache.json"]
WITH_BACKEND = [CACHE, f"{CACHE}.1", "index.npz", "compat_cache.json"]


@pytest.fixture
def built(tmp_path):
    """A source built twice, the second time grown by one table, so each
    ``cache`` wrote one segment of column-header vectors: each build adds a
    table whose city_id is contained in cities.city_id, and only the headers
    of columns that can join are embedded."""
    source = tmp_path / "source"
    source.mkdir()
    purposes = tmp_path / "purposes.json"
    out = tmp_path / "out"
    builds = [
        {
            "cities": ("city_id,city\n1,Bern\n2,Oslo\n3,Rome\n", "city list"),
            "mayors": ("mayor,city_id\nAnna,1\nBo,3\n", "mayor list"),
        },
        {"museums": ("museum,city_id\nKunst,1\nMunch,2\n", "museum list")},
    ]
    for tables in builds:
        for name, (rows, _) in tables.items():
            (source / f"{name}.csv").write_text(rows, encoding="utf-8")
        # only the new tables are asked for, in id order
        purposes.write_text(json.dumps([purpose for _, purpose in tables.values()]), encoding="utf-8")
        assert main(["ingest", "--out-dir", str(out), str(source)]) == EXIT_OK
        assert main(["enrich", "--out-dir", str(out), "--generator", f"scripted:{purposes}"]) == EXIT_OK
        assert main(["cache", "--out-dir", str(out)]) == EXIT_OK
    # cities.city_id and mayors.city_id, then museums.city_id
    for segment, size in ((CACHE, 2), (f"{CACHE}.1", 1)):
        assert len(read_npz(out / segment, "embedding cache", None, "keys")[1]) == size
    queries = tmp_path / "queries.jsonl"
    query = {"query_id": "q1", "question": "museums per city"}
    queries.write_text(json.dumps(query) + "\n", encoding="utf-8")
    return out, queries


def next_command(name, out, queries):
    """Exit code of the next CLI command that reads ``name``."""
    if name == "corpus.json" or name.startswith(CACHE):
        return main(["cache", "--out-dir", str(out)])
    return main(["retrieve", "--out-dir", str(out), "--queries", str(queries), "--fallback-only"])


def is_npz(path):
    return ".npz" in path.suffixes  # a numbered segment ends in .npz.<n>


def savez(path, **arrays):
    """``np.savez`` to ``path`` as named; given a name, numpy would add ``.npz``."""
    with path.open("wb") as handle:
        np.savez(handle, **arrays)


def edit_header(path, **changes):
    if is_npz(path):
        with np.load(path, allow_pickle=False) as data:
            arrays = {name: data[name] for name in data.files}
        meta = json.loads(str(arrays.pop("meta")))
        savez(path, **arrays, meta=np.asarray(json.dumps({**meta, **changes})))
    else:
        data = json.loads(path.read_text(encoding="utf-8"))
        path.write_text(json.dumps({**data, **changes}), encoding="utf-8")


def resave(path):
    """Write ``path`` again with the code that wrote it."""
    if path.name == "corpus.json":
        save_corpus(load_corpus(path), path)
    elif path.name == "enriched.json":
        EnrichmentStore(path).save()
    elif path.name.startswith(CACHE):
        # a save writes only what is new, so one new text makes it write
        cache = CachingEmbedder(HashingEmbedder(), path.with_name(CACHE))
        cache.embed("a text no command embedded")
        cache.save()
    elif path.name == "index.npz":
        DenseIndex.load(path).save(path)
    else:
        CompatibilityCache.load(path).save(path)


@pytest.mark.parametrize("name", ARTIFACTS)
def test_torn_artifact_is_an_input_error(built, capsys, name):
    out, queries = built
    path = out / name
    path.write_bytes(path.read_bytes()[:12])
    assert next_command(name, out, queries) == EXIT_INPUT
    assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize("name", ARTIFACTS)
def test_other_format_version_is_refused(built, capsys, name):
    out, queries = built
    path = out / name
    edit_header(path, version=FORMAT_VERSION + 1)
    assert next_command(name, out, queries) == EXIT_INPUT
    err = capsys.readouterr().err
    assert f"version {FORMAT_VERSION + 1}" in err and str(path) in err


@pytest.mark.parametrize("name", WITH_BACKEND)
def test_other_backend_is_a_backend_error(built, capsys, name):
    out, queries = built
    path = out / name
    edit_header(path, backend_id="stub-ngram3-d64")
    assert next_command(name, out, queries) == EXIT_BACKEND
    assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize("name", ARTIFACTS)
def test_failed_write_keeps_the_old_file(built, monkeypatch, name):
    out, _ = built
    path = out / name
    before = path.read_bytes()

    def left_behind():
        return [p.name for p in out.iterdir() if p.name.endswith(".tmp")]

    with pytest.raises(RuntimeError):
        with replacing(path) as tmp:
            tmp.write_bytes(before[:12])
            raise RuntimeError("killed mid-write")
    assert path.read_bytes() == before
    assert left_behind() == []

    # the writer itself goes through replacing: a failed rename keeps the old file
    def refuse(src, dst):
        raise OSError("no space left")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="no space left"):
        resave(path)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert left_behind() == []

    resave(path)
    assert path.read_bytes() == before


def drop_field(path, name):
    """Remove one required field from a right-version artifact."""
    if is_npz(path):
        with np.load(path, allow_pickle=False) as data:
            arrays = {key: data[key] for key in data.files if key != name}
        savez(path, **arrays)
        return
    data = json.loads(path.read_text(encoding="utf-8"))
    if name in data:
        del data[name]
    elif "edges" in data:  # a cache row's fields are positional, its score first
        for row in data["edges"]:
            del row[0]
    else:
        for record in data["entries"].values():
            del record[name]
    path.write_text(json.dumps(data), encoding="utf-8")


@pytest.mark.parametrize(
    "name, field",
    [
        ("corpus.json", "tables"),
        ("enriched.json", "entries"),
        ("enriched.json", "purpose"),
        ("enriched.json", "text"),
        ("embedding_cache.npz", "vectors"),
        ("index.npz", "vectors"),
        ("index.npz", "keys"),
        ("compat_cache.json", "edges"),
        ("compat_cache.json", "score"),
    ],
)
def test_missing_field_is_an_input_error(built, capsys, name, field):
    out, queries = built
    path = out / name
    drop_field(path, field)
    assert next_command(name, out, queries) == EXIT_INPUT
    err = capsys.readouterr().err
    assert str(path) in err and repr(field) in err


def edit_array(path, name, change):
    """Replace array ``name`` of an ``.npz`` artifact with ``change(array)``."""
    with np.load(path, allow_pickle=False) as data:
        arrays = {key: data[key] for key in data.files}
    arrays[name] = change(arrays[name])
    savez(path, **arrays)


WRONG_TYPED = {"tables": 5, "entries": ["x"], "edges": {}}


@pytest.mark.parametrize(
    "name, field",
    [
        ("corpus.json", "tables"),
        ("enriched.json", "entries"),
        ("compat_cache.json", "edges"),
        ("index.npz", "ids"),
        ("index.npz", "keys"),
        ("embedding_cache.npz", "keys"),
    ],
)
def test_wrong_typed_or_shaped_field_is_an_input_error(built, capsys, name, field):
    out, queries = built
    path = out / name
    if is_npz(path):
        edit_array(path, field, lambda keys: keys[:-1])  # one key fewer than vector rows
    else:
        edit_header(path, **{field: WRONG_TYPED[field]})
    assert next_command(name, out, queries) == EXIT_INPUT
    err = capsys.readouterr().err
    assert str(path) in err and field in err


@pytest.mark.parametrize("name", ["index.npz", CACHE, f"{CACHE}.1"])
@pytest.mark.parametrize("dimension", [255, None, "256", True], ids=["narrower", "null", "string", "bool"])
def test_dimension_other_than_the_vectors_width_is_an_input_error(built, capsys, name, dimension):
    out, queries = built
    path = out / name
    edit_header(path, dimension=dimension)
    assert next_command(name, out, queries) == EXIT_INPUT
    err = capsys.readouterr().err
    assert str(path) in err and "'dimension'" in err and "width 256" in err


def npz_header(path):
    with np.load(path, allow_pickle=False) as data:
        return json.loads(str(data["meta"]))


def compact(path):
    """Save one new text at a time, each save adding a segment, until a save
    compacts the cache at ``path`` into segment 0; returns the number of saves."""
    saves = 0
    while len(segments(path)) > 1 and saves < 2 * MAX_CACHE_SEGMENTS:
        cache = CachingEmbedder(HashingEmbedder(), path)
        cache.embed(f"text {saves}")
        cache.save()
        saves += 1
    return saves


def json_header(path):
    """The top-level fields of a JSON artifact other than its body."""
    data = json.loads(path.read_text(encoding="utf-8"))
    return {key: value for key, value in data.items() if key not in ("edges", "entries", "sources", "tables")}


def test_every_artifact_carries_exactly_its_header(built):
    out, _ = built
    backend = HashingEmbedder().backend_id
    vectors = {"version": FORMAT_VERSION, "backend_id": backend, "dimension": 256}
    assert {name: json_header(out / name) for name in ["corpus.json", "manifest.json", "enriched.json"]} == {
        name: {"version": FORMAT_VERSION} for name in ["corpus.json", "manifest.json", "enriched.json"]
    }
    assert json_header(out / "compat_cache.json") == {"version": FORMAT_VERSION, "backend_id": backend}
    for name in ["index.npz", CACHE, f"{CACHE}.1"]:
        assert npz_header(out / name) == vectors, name

    journal = out / "enriched.json.journal"
    with open_journal(journal) as handle:
        append_journal(handle, RECORD)
    assert json.loads(journal.read_text(encoding="utf-8").splitlines()[0]) == {"version": FORMAT_VERSION}

    # a compacted segment 0 carries the header of any other segment
    assert compact(out / CACHE) == MAX_CACHE_SEGMENTS - 1
    assert npz_header(out / CACHE) == vectors


@pytest.mark.parametrize(
    "reverse, cs",
    [(True, None), (False, 0), (False, -0.5), (False, float("nan")), (False, float("inf")), (False, True)],
    ids=["reversed-key", "zero", "negative", "nan", "infinity", "bool"],
)
def test_bad_cache_pair_is_an_input_error(built, capsys, tmp_path, reverse, cs):
    out, _ = built
    path = out / "compat_cache.json"
    data = json.loads(path.read_text(encoding="utf-8"))
    row = data["edges"][0]
    left, right = row[1], row[3]
    if reverse:
        row[1:] = row[3:] + row[1:3]
    else:
        row[0] = cs
    data["edges"] = [row]
    path.write_text(json.dumps(data), encoding="utf-8")
    gold = tmp_path / "gold_joins.json"
    gold.write_text(json.dumps([{"table_a": left, "table_b": right, "joinable": True}]), encoding="utf-8")
    assert main(["eval", "--out-dir", str(out), "--gold-joins", str(gold)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert f"{path}: edge 0" in err


def with_value(value):
    def change(vectors):
        vectors = vectors.copy()
        vectors[-1, 0] = value
        return vectors

    return change


def repeat_first(keys):
    keys = keys.copy()
    keys[-1] = keys[0]
    return keys


@pytest.mark.parametrize(
    "name, keys_field", [("index.npz", "ids"), ("index.npz", "keys"), ("embedding_cache.npz", "keys")]
)
@pytest.mark.parametrize(
    "field, change, complaint",
    [
        ("vectors", with_value(np.nan), "NaN"),
        ("vectors", with_value(np.inf), "infinity"),
        ("vectors", with_value(-np.inf), "infinity"),
        ("keys", repeat_first, "repeated"),
    ],
    ids=["nan", "inf", "-inf", "repeated-key"],
)
def test_nonfinite_vector_or_repeated_key_is_an_input_error(built, capsys, name, keys_field, field, change, complaint):
    out, queries = built
    path = out / name
    edit_array(path, keys_field if field == "keys" else field, change)
    assert next_command(name, out, queries) == EXIT_INPUT
    err = capsys.readouterr().err
    assert str(path) in err and complaint in err


def not_ascii(keys):
    keys = keys.copy()
    keys[0] = b"\xff" * 64
    return keys


@pytest.mark.parametrize(
    "change, complaint",
    [(lambda keys: keys.reshape(-1, 1), "keys (3, 1)"), (not_ascii, "not ASCII")],
    ids=["two-dimensional", "not-ascii"],
)
def test_index_keys_other_than_one_ascii_key_per_row_are_an_input_error(built, capsys, change, complaint):
    out, queries = built
    path = out / "index.npz"
    edit_array(path, "keys", change)
    # retrieve reads the index, and the embedding cache reads it as a source
    assert next_command("index.npz", out, queries) == EXIT_INPUT
    assert next_command(CACHE, out, queries) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.count(str(path)) == 2 and err.count(complaint) == 2 and "Traceback" not in err


def test_read_npz_keys_refuses_a_key_member_of_two_dimensions(tmp_path):
    path = tmp_path / "index.npz"
    write_npz(path, "b", {"keys": np.asarray([b"k0", b"k1"])}, np.ones((2, 3)))
    assert read_npz_keys(path, "index", "b", "keys") == ["k0", "k1"]
    write_npz(path, "b", {"keys": np.asarray([[b"k0"], [b"k1"]])}, np.ones((2, 3)))
    with pytest.raises(CorpusError, match=re.escape(f"{path}: keys (2, 1) is not one key per row")):
        read_npz_keys(path, "index", "b", "keys")


def test_key_in_the_index_and_a_segment_with_another_vector_is_an_input_error(built, capsys):
    out, queries = built
    with np.load(out / "index.npz", allow_pickle=False) as data:
        taken = data["keys"][0]

    def repeat_indexed(keys):
        keys = keys.copy()
        keys[0] = taken  # a column header's vector under a table text's key
        return keys

    edit_array(out / CACHE, "keys", repeat_indexed)
    assert next_command(CACHE, out, queries) == EXIT_INPUT
    err = capsys.readouterr().err
    assert str(out / "index.npz") in err and taken.decode() in err and "another vector" in err


def test_index_of_format_version_1_is_refused_by_retrieve_and_enrich(built, capsys):
    out, queries = built
    path = out / "index.npz"
    edit_header(path, version=1)
    purposes = f"scripted:{out.parent / 'purposes.json'}"
    assert next_command("index.npz", out, queries) == EXIT_INPUT
    assert main(["enrich", "--out-dir", str(out), "--generator", purposes]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.count(f"unsupported index format version 1 in {path}") == 2


def test_text_keys_are_32_ascii_hex_digits_of_each_text(built):
    out, _ = built
    entries = json.loads((out / "enriched.json").read_text(encoding="utf-8"))["entries"]
    texts = {
        "index.npz": [entries[tid]["text"] for tid in sorted(entries)],  # one row per id, in id order
        CACHE: ["cities.city_id", "mayors.city_id"],
        f"{CACHE}.1": ["museums.city_id"],
    }
    for name, held in texts.items():
        with np.load(out / name, allow_pickle=False) as data:
            keys = data["keys"]
        assert keys.dtype == np.dtype("S32"), name
        expected = [digest(text).encode() for text in held]
        assert keys.tolist() == (expected if name == "index.npz" else sorted(expected)), name


def as_version_2(path, texts):
    """Rewrite the ``.npz`` at ``path`` as format version 2 wrote it, each
    text key the whole 64-digit SHA-256 of its text, one of ``texts``."""
    whole = {digest(text).encode(): hashlib.sha256(text.encode("utf-8")).hexdigest().encode() for text in texts}
    edit_array(path, "keys", lambda keys: np.asarray([whole[key] for key in keys.tolist()], dtype="S"))
    edit_header(path, version=2)


@pytest.mark.parametrize("name, what", [("index.npz", "index"), (CACHE, "embedding cache")], ids=["index", "segment"])
def test_file_of_format_version_2_is_refused_by_retrieve_enrich_and_cache(built, capsys, name, what):
    # read, a version-2 file's 64-digit keys would miss every lookup and
    # its entries would be embedded and saved again under 32-digit keys
    out, queries = built
    entries = json.loads((out / "enriched.json").read_text(encoding="utf-8"))["entries"]
    headers = ["cities.city_id", "mayors.city_id", "museums.city_id"]
    path = out / name
    as_version_2(path, [entry["text"] for entry in entries.values()] + headers)
    before = {file.name: file.read_bytes() for file in out.iterdir()}
    purposes = f"scripted:{out.parent / 'purposes.json'}"
    retrieved = next_command("index.npz", out, queries)
    assert main(["enrich", "--out-dir", str(out), "--generator", purposes]) == EXIT_INPUT
    assert main(["cache", "--out-dir", str(out)]) == EXIT_INPUT
    refusal = f"unsupported {what} format version 2 in {path}"
    if name == "index.npz":
        assert retrieved == EXIT_INPUT
        assert capsys.readouterr().err.count(refusal) == 3
    else:  # retrieve embeds only the query and reads no segment
        assert retrieved == EXIT_OK
        assert capsys.readouterr().err.count(refusal) == 2
        before["results.jsonl"] = (out / "results.jsonl").read_bytes()
    assert {file.name: file.read_bytes() for file in out.iterdir()} == before


def test_corpus_row_of_the_wrong_width_is_an_input_error(built, capsys):
    # corpus.json holds a table by column: a row a cell short or over is a
    # column of another length than the others
    out, queries = built
    path = out / "corpus.json"
    data = json.loads(path.read_text(encoding="utf-8"))
    table = data["tables"][-1]
    second = table["columns"][1]
    rows = len(table["values"][0])
    table["values"][1] = table["values"][1][:-1]
    path.write_text(json.dumps(data), encoding="utf-8")
    assert next_command("corpus.json", out, queries) == EXIT_INPUT
    err = capsys.readouterr().err
    assert str(path) in err and repr(table["id"]) in err
    assert f"column {second!r} has {rows - 1} values, expected {rows}" in err

    table["values"][1] += ["extra", "cells"]
    path.write_text(json.dumps(data), encoding="utf-8")
    assert next_command("corpus.json", out, queries) == EXIT_INPUT
    assert f"column {second!r} has {rows + 1} values" in capsys.readouterr().err


def test_corpus_of_format_version_3_is_refused_by_enrich_cache_and_eval(built, capsys, tmp_path):
    # version 3 held each table by row; there is no reader for that layout
    out, _ = built
    path = out / "corpus.json"
    data = json.loads(path.read_text(encoding="utf-8"))
    for table in data["tables"]:
        table["rows"] = [list(row) for row in zip(*table.pop("values"))]
    path.write_text(json.dumps({**data, "version": 3}), encoding="utf-8")
    gold = tmp_path / "gold_joins.json"
    gold.write_text(json.dumps([{"table_a": "cities", "table_b": "mayors", "joinable": True}]), encoding="utf-8")
    before = {file.name: file.read_bytes() for file in out.iterdir()}
    purposes = f"scripted:{out.parent / 'purposes.json'}"
    assert main(["enrich", "--out-dir", str(out), "--generator", purposes]) == EXIT_INPUT
    assert main(["cache", "--out-dir", str(out)]) == EXIT_INPUT
    assert main(["eval", "--out-dir", str(out), "--gold-joins", str(gold)]) == EXIT_INPUT
    assert capsys.readouterr().err.count(f"unsupported corpus file format version 3 in {path}") == 3
    assert {file.name: file.read_bytes() for file in out.iterdir()} == before


class Fixed:
    """A backend returning given vectors."""

    backend_id = "fixed-d3"
    dimension = 3

    def __init__(self, vectors):
        self.vectors = vectors

    def embed(self, text):
        return self.vectors[text]

    def embed_many(self, texts):
        return np.array([self.vectors[text] for text in texts]).reshape(len(texts), self.dimension)


finite = st.floats(width=64, allow_nan=False, allow_infinity=False)
vectors = st.lists(finite, min_size=3, max_size=3).map(np.array)


def cache_files(path):
    """The segments of the cache at ``path`` that exist, in number order."""
    return list(segments(path).values())


def digest(text):
    """The text key of ``text``: the first 128 bits of its SHA-256, in hex."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:32]


@given(saves=st.lists(st.dictionaries(st.text(min_size=1), vectors, max_size=4), min_size=1, max_size=12))
@example(saves=[{}])
@settings(max_examples=100, deadline=None)
def test_embedding_cache_round_trips(tmp_path_factory, saves):
    # each save is a fresh process embedding one batch; a text in two batches
    # is embedded once, and more saves than MAX_CACHE_SEGMENTS compact
    path = tmp_path_factory.mktemp("cache") / "embedding_cache.npz"
    entries = {}
    for batch in saves:
        for text, vector in batch.items():
            entries.setdefault(text, vector)
    for batch in saves:
        cache = CachingEmbedder(Fixed(entries), path)
        for text in batch:
            cache.embed(text)
        cache.save()
    assert len(cache_files(path)) <= MAX_CACHE_SEGMENTS

    union = {}
    for segment in cache_files(path):
        _, keys, vectors = read_npz(segment, "embedding cache", Fixed.backend_id, "keys")
        assert keys == sorted(keys)
        assert not union.keys() & keys
        union.update(zip(keys, vectors))
        with np.load(segment, allow_pickle=False) as data:
            assert data["keys"].dtype == np.dtype("S32")  # 32 ASCII bytes, not 4-byte unicode
    assert sorted(union) == sorted(digest(text) for text in entries)
    for text, vector in entries.items():
        assert union[digest(text)].tobytes() == vector.tobytes()  # bit-identical, -0.0 too
    if not entries:  # a save with nothing to write writes no file
        assert cache_files(path) == []

    reloaded = CachingEmbedder(Fixed({}), path)
    for text, vector in entries.items():
        assert reloaded.embed(text).tobytes() == vector.tobytes()
    assert reloaded.backend_calls == 0
    saved = {segment: segment.read_bytes() for segment in cache_files(path)}
    reloaded.save()  # nothing new: nothing written
    assert {segment: segment.read_bytes() for segment in cache_files(path)} == saved


def test_cache_with_str_keys_loads_without_calls(tmp_path):
    # a key member may be stored as str, as the index's ids are
    path = tmp_path / "embedding_cache.npz"
    texts = ["Table name: cities", "museums per city", "漢字"]
    cache = CachingEmbedder(HashingEmbedder(), path)
    vectors = [cache.embed(text) for text in texts]
    cache.save()
    edit_array(path, "keys", lambda keys: keys.astype("<U64"))
    with np.load(path, allow_pickle=False) as data:
        assert data["keys"].dtype == np.dtype("<U64")
    reloaded = CachingEmbedder(HashingEmbedder(), path)
    for text, vector in zip(texts, vectors):
        assert reloaded.embed(text).tobytes() == vector.tobytes()
    assert reloaded.backend_calls == 0


def test_cache_keys_that_are_not_ascii_are_an_input_error(built, capsys):
    out, queries = built
    path = out / "embedding_cache.npz"
    edit_array(path, "keys", not_ascii)
    assert next_command("embedding_cache.npz", out, queries) == EXIT_INPUT
    err = capsys.readouterr().err
    assert str(path) in err and "not ASCII" in err and "Traceback" not in err


def copy_rows(source, target, rows=slice(None)):
    """Append the keys and vectors ``rows`` of segment ``source`` to segment ``target``."""
    with np.load(source, allow_pickle=False) as data:
        keys, vectors = data["keys"][rows], data["vectors"][rows]
    edit_array(target, "keys", lambda held: np.concatenate([held, keys]))
    edit_array(target, "vectors", lambda held: np.concatenate([held, vectors]))
    return keys


def forbid_embedding(monkeypatch):
    """Make any embedding by the stub backend fail the test."""

    def no_call(self, texts):
        raise AssertionError(f"backend asked to embed {texts!r}")

    monkeypatch.setattr(HashingEmbedder, "embed", no_call)
    monkeypatch.setattr(HashingEmbedder, "embed_many", no_call)


def test_key_in_two_segments_with_one_vector_loads_once(built, monkeypatch):
    out, _ = built
    # segment 1 repeats segment 0's first entry, as a killed compaction leaves it
    (taken,) = copy_rows(out / CACHE, out / f"{CACHE}.1", slice(1))
    before = {segment: segment.read_bytes() for segment in cache_files(out / CACHE)}
    with monkeypatch.context() as patched:
        forbid_embedding(patched)
        assert main(["cache", "--out-dir", str(out)]) == EXIT_OK
    assert {segment: segment.read_bytes() for segment in cache_files(out / CACHE)} == before
    saves = compact(out / CACHE)
    _, keys, _ = read_npz(out / CACHE, "embedding cache", None, "keys")  # refuses a repeated key
    # the three headers that can join, two then one, and one text a save
    assert taken.decode() in keys and len(keys) == 2 + 1 + saves


def test_key_in_two_segments_with_another_vector_is_an_input_error_naming_the_later(built, capsys):
    out, queries = built
    (taken,) = copy_rows(out / CACHE, out / f"{CACHE}.1", slice(1))
    edit_array(out / f"{CACHE}.1", "vectors", with_value(2.0))  # no unit vector holds 2.0
    assert next_command(CACHE, out, queries) == EXIT_INPUT
    err = capsys.readouterr().err
    assert str(out / f"{CACHE}.1") in err and taken.decode() in err and "another vector" in err


def test_cache_whose_segment_0_records_absorbed_segments_loads_without_calls(built, monkeypatch, tmp_path):
    # an earlier writer's compaction recorded in segment 0's header the highest
    # segment it took in, and a kill before its deletes left that segment
    out, _ = built
    copy_rows(out / f"{CACHE}.1", out / CACHE)
    (out / f"{CACHE}.1").rename(out / f"{CACHE}.3")
    edit_header(out / CACHE, absorbed=3)
    before = {segment: segment.read_bytes() for segment in cache_files(out / CACHE)}
    with monkeypatch.context() as patched:
        forbid_embedding(patched)
        purposes = f"scripted:{tmp_path / 'purposes.json'}"
        assert main(["enrich", "--out-dir", str(out), "--generator", purposes]) == EXIT_OK
        assert main(["cache", "--out-dir", str(out)]) == EXIT_OK
    assert {segment: segment.read_bytes() for segment in cache_files(out / CACHE)} == before


def test_segments_of_different_widths_are_an_input_error(built, capsys):
    out, queries = built
    edit_array(out / f"{CACHE}.1", "vectors", lambda vectors: vectors[:, :-1])
    edit_header(out / f"{CACHE}.1", dimension=255)  # the segment agrees with itself
    assert next_command(CACHE, out, queries) == EXIT_INPUT
    err = capsys.readouterr().err
    assert str(out / f"{CACHE}.1") in err and "width 255" in err


def test_backend_width_other_than_the_cache_is_a_backend_error(tmp_path):
    path = tmp_path / CACHE
    first = CachingEmbedder(Fixed({"a": np.ones(3)}), path)
    first.embed("a")
    first.save()
    wider = Fixed({"b": np.ones(4)})
    wider.dimension = 4
    rerun = CachingEmbedder(wider, path)
    with pytest.raises(BackendError, match="dimension 4, expected 3"):
        rerun.embed("b")
    rerun.save()
    assert cache_files(path) == [path]  # nothing new to write, no segment of width 4


def test_stray_temp_file_is_not_a_segment(built):
    out, _ = built
    stray = out / f"{CACHE}.2.tmp"
    stray.write_bytes(b"torn")
    assert main(["cache", "--out-dir", str(out)]) == EXIT_OK
    assert segments(out / CACHE) == {0: out / CACHE, 1: out / f"{CACHE}.1"}
    cache = CachingEmbedder(HashingEmbedder(), out / CACHE)
    cache.embed("a text no command embedded")
    cache.save()  # the stray's name is taken over by the segment it was to become
    assert segments(out / CACHE) == {0: out / CACHE, 1: out / f"{CACHE}.1", 2: out / f"{CACHE}.2"}
    assert not stray.exists()


class Killed(Exception):
    """Stands for a process killed at a file operation."""


@pytest.mark.parametrize("fillers", [0, MAX_CACHE_SEGMENTS - 2], ids=["save", "compaction"])
def test_a_kill_at_any_step_of_a_save_leaves_a_cache_that_loads(built, tmp_path, monkeypatch, fillers):
    out, _ = built
    path = out / CACHE
    # each filler save adds one segment; with MAX_CACHE_SEGMENTS of them the next save compacts
    for i in range(fillers):
        cache = CachingEmbedder(HashingEmbedder(), path)
        cache.embed(f"filler {i}")
        cache.save()
    before = {p: p.read_bytes() for p in cache_files(path)}
    purposes = f"scripted:{tmp_path / 'purposes.json'}"
    real_replace, real_unlink = os.replace, Path.unlink

    steps = 0
    while True:
        for leftover in out.glob(f"{CACHE}*"):
            leftover.unlink()
        for segment, content in before.items():
            segment.write_bytes(content)
        cache = CachingEmbedder(HashingEmbedder(), path)
        cache.embed("the text this save writes")
        done = 0

        def step(operation):
            def run(*args, **kwargs):
                nonlocal done
                if done == steps:
                    raise Killed
                done += 1
                return operation(*args, **kwargs)

            return run

        monkeypatch.setattr(os, "replace", step(real_replace))
        monkeypatch.setattr(Path, "unlink", step(real_unlink))
        try:
            cache.save()
            finished = True
        except Killed:
            finished = False
        monkeypatch.undo()

        # the cache loads and holds every entry saved before: no command asks the backend
        forbid_embedding(monkeypatch)
        assert main(["enrich", "--out-dir", str(out), "--generator", purposes]) == EXIT_OK
        assert main(["cache", "--out-dir", str(out)]) == EXIT_OK
        reloaded = CachingEmbedder(HashingEmbedder(), path)
        for i in range(fillers):
            reloaded.embed(f"filler {i}")
        monkeypatch.undo()
        files = cache_files(path)
        if fillers:  # segment 0, rewritten or not, and the old segments not yet deleted
            assert files[0] == path and set(files) <= set(before)
        else:  # the old segments, or those and the new one
            assert files in (list(before), [*before, out / f"{CACHE}.{len(before)}"])
        if finished:
            assert len(files) == (1 if fillers else len(before) + 1)
            break
        steps += 1
    # each file operation was a kill point: the rename, the removal of the
    # temp file and, in a compaction, the deletion of each other segment
    assert steps == 2 + (MAX_CACHE_SEGMENTS - 1 if fillers else 0)


def npy_bytes(array):
    """The bytes ``np.save`` writes for ``array``."""
    buffer = io.BytesIO()
    np.lib.format.write_array(buffer, array, allow_pickle=False)
    return buffer.getvalue()


@pytest.mark.parametrize("rows, width", [(0, 0), (1, 3), (3000, 64)])
def test_npz_bytes_are_those_numpy_writes(tmp_path, rows, width):
    # 3000 rows span several chunks of every array; the index's two key
    # members, its ids as str and its text keys as ASCII bytes
    rng = np.random.default_rng(rows)
    ids = np.asarray([f"key{i}" * 9 for i in range(rows)], dtype=str)
    keys = np.asarray([digest(str(i)) for i in range(rows)], dtype="S")
    vectors = rng.standard_normal((rows, width))
    chunked = tmp_path / "chunked.npz"
    write_npz(chunked, "stub", {"ids": ids, "keys": keys}, vectors)
    meta = {"version": FORMAT_VERSION, "backend_id": "stub", "dimension": width}
    arrays = {"ids": ids, "keys": keys, "vectors": vectors, "meta": np.asarray(json.dumps(meta, sort_keys=True))}
    # the layout of np.savez_compressed, each whole array written at once,
    # but at write_npz's zlib level, where numpy always deflates at level 6
    reference = tmp_path / "reference.npz"
    with zipfile.ZipFile(reference, "w", zipfile.ZIP_DEFLATED, allowZip64=True, compresslevel=NPZ_LEVEL) as npz:
        for name, array in arrays.items():
            with npz.open(f"{name}.npy", "w", force_zip64=True) as member:
                member.write(npy_bytes(array))
    assert chunked.read_bytes() == reference.read_bytes()
    with zipfile.ZipFile(chunked) as npz:
        assert [info.filename for info in npz.infolist()] == [f"{name}.npy" for name in arrays]
        for name, array in arrays.items():
            assert npz.getinfo(f"{name}.npy").compress_type == zipfile.ZIP_DEFLATED
            assert npz.read(f"{name}.npy") == npy_bytes(array), name


# ---------------------------------------------------------------------------
# The enrichment journal
# ---------------------------------------------------------------------------

RECORD = {"purpose": "p", "table_id": "cities", "text": "Table name: cities"}


def journal_bytes(*records, version=FORMAT_VERSION):
    # records are compact, as append_journal writes them
    records = [json.dumps(r, sort_keys=True, separators=(",", ":")) for r in records]
    lines = [json.dumps({"version": version})] + records
    return "".join(line + "\n" for line in lines).encode("utf-8")


@pytest.mark.parametrize(
    "torn",
    [b"", b'{"purpose": "p", "tab', '{"text": "é'.encode("utf-8")[:-1]],
    ids=["none", "mid-record", "mid-character"],
)
def test_torn_last_journal_line_is_dropped_and_cut_before_an_append(tmp_path, torn):
    path = tmp_path / "enriched.json.journal"
    path.write_bytes(journal_bytes(RECORD) + torn)
    assert read_journal(path, "journal") == [(2, RECORD)]
    other = {**RECORD, "table_id": "museums"}
    with open_journal(path) as handle:
        append_journal(handle, other)
    assert path.read_bytes() == journal_bytes(RECORD, other)


@pytest.mark.parametrize("content", [None, b"", b'{"vers'], ids=["missing", "empty", "torn-header"])
def test_journal_without_a_complete_line_gets_its_header_first(tmp_path, content):
    path = tmp_path / "enriched.json.journal"
    if content is not None:
        path.write_bytes(content)
        assert read_journal(path, "journal") == []
    with open_journal(path) as handle:
        append_journal(handle, RECORD)
    assert path.read_bytes() == journal_bytes(RECORD)


@pytest.mark.parametrize(
    "content, complaint",
    [
        (journal_bytes() + b'{"purpose": "p", "tab\n' + journal_bytes(RECORD)[15:], ":2: invalid JSON"),
        (journal_bytes({**RECORD, "table_id": 5}, RECORD), ":2: field 'table_id' holds int"),
        (journal_bytes(RECORD, {"table_id": "museums", "text": "t"}), ":3: missing field 'purpose'"),
        (journal_bytes(RECORD) + b"[1]\n", ":3: expected a JSON object"),
        (journal_bytes(RECORD, version=FORMAT_VERSION + 1), f"version {FORMAT_VERSION + 1}"),
    ],
    ids=["broken-line", "wrong-type", "missing-field", "last-line-complete-but-bad", "other-version"],
)
def test_bad_journal_line_is_an_input_error_naming_it(built, capsys, content, complaint):
    out, queries = built
    journal = out / "enriched.json.journal"
    journal.write_bytes(content)
    purposes = f"scripted:{out.parent / 'purposes.json'}"
    assert main(["enrich", "--out-dir", str(out), "--generator", purposes]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert str(journal) in err and complaint in err
    assert next_command("enriched.json", out, queries) == EXIT_INPUT


# ---------------------------------------------------------------------------
# Surrogate and control-character escapes, in every JSON reader
# ---------------------------------------------------------------------------


def write_with_cell(path, escape):
    """Write a ``corpus.json``, a ``queries.jsonl`` and an enrichment journal
    into ``path``, each holding ``escape`` as written in a string of its
    second record. By reader: what its refusal names, and a call that reads
    that string back."""
    corpus = path / "corpus.json"
    save_corpus(TableCorpus(tables=(Table.build("t", "t", ["a"], [["x"], ["CELL"]]),)), corpus)
    corpus.write_text(corpus.read_text(encoding="utf-8").replace("CELL", escape), encoding="utf-8")
    queries = path / "queries.jsonl"
    queries.write_text('{"query_id": "q1"}\n{"query_id": "%s"}\n' % escape, encoding="utf-8")
    journal = path / "enriched.json.journal"
    journal.write_bytes(journal_bytes(RECORD) + b'{"table_id": "%s"}\n' % escape.encode("ascii"))
    return {
        "corpus": (corpus, lambda: load_corpus(corpus).get("t").columns[0].values[1]),
        "queries": (f"{queries}:2", lambda: read_jsonl(queries, "queries")[1][1]["query_id"]),
        "journal": (f"{journal}:3", lambda: read_journal(journal, "journal")[1][1]["table_id"]),
    }


@pytest.mark.parametrize("escape", ["\\ud800", "\\uDBFF", "\\udc00", "\\uDfFf", "\\ud83d x", "\\ude00\\ud83d"])
def test_a_lone_surrogate_escape_is_refused_by_every_json_reader(tmp_path, escape):
    for name, (where, read) in write_with_cell(tmp_path, escape).items():
        with pytest.raises(CorpusError, match="lone surrogate") as refused:
            read()
        assert str(where) in str(refused.value), name


@pytest.mark.parametrize("escape", ["\\ud83d\\ude00", "\\uD83D\\uDE00"], ids=["lower", "upper"])
def test_an_escaped_surrogate_pair_loads_as_its_one_character(tmp_path, escape):
    for name, (_, read) in write_with_cell(tmp_path, escape).items():
        assert read() == "\U0001f600", name


def test_a_control_character_cell_round_trips_with_one_serialization(tmp_path, monkeypatch):
    cells = [["\x01"], ["a\x1fb\x7f"], ["\x00"], ["tab\there"]]
    corpus = TableCorpus(tables=(Table.build("t", "t", ["a"], cells),))
    path = tmp_path / "corpus.json"
    save_corpus(corpus, path)
    assert "\\u0001" in path.read_text(encoding="utf-8")
    # only a surrogate's escape makes a reader serialize what it parsed again
    serialize_nothing = types.SimpleNamespace(loads=json.loads, dumps=None)
    monkeypatch.setattr(artifacts, "json", serialize_nothing)
    assert load_corpus(path).tables == corpus.tables
