"""Purpose enrichment, enriched-text composition, and the dense index."""

from __future__ import annotations

import gc
import os
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tablescout import (
    BackendError,
    DenseIndex,
    HashingEmbedder,
    ScriptedGenerator,
    Table,
    TokenLedger,
    enrich_tables,
    enriched_text,
    markdown_grid,
    sample_rows,
    serialize_markdown,
)
import tablescout.corpus
import tablescout.indexing
import tablescout.services
from tablescout.artifacts import journal_of, read_journal
from tablescout.indexing import (
    PURPOSE_MAX_TOKENS,
    PURPOSE_PROMPT,
    EnrichedTable,
    EnrichmentStore,
    generate_purpose,
)
from tablescout.services import CachingEmbedder, GenerationResponse, cosine


class RecordingGenerator:
    """Captures requests; replies with a fixed text."""

    def __init__(self, text="a purpose paragraph"):
        self.text = text
        self.requests = []

    def generate(self, request):
        self.requests.append(request)
        return GenerationResponse(text=self.text, input_tokens=11, output_tokens=7)


def make_table(name, column_names, rows):
    return Table.build(name, name, column_names, rows)


SIMPLE = make_table("songs", ["id", "title"], [["1", "Blue"], ["2", "Gold"]])
SIMPLE_GRID = markdown_grid(SIMPLE, sample_rows(SIMPLE))


# ---------------------------------------------------------------------------
# Purpose generation
# ---------------------------------------------------------------------------


class TestGeneratePurpose:
    def test_prompt_embeds_instruction_and_serialized_table(self):
        gen = RecordingGenerator()
        generate_purpose(SIMPLE, gen, SIMPLE_GRID, ledger=TokenLedger())
        prompt = gen.requests[0].prompt
        rendered = serialize_markdown(SIMPLE, SIMPLE_GRID)
        assert prompt == PURPOSE_PROMPT.replace("{table}", rendered)
        assert prompt.startswith("Given the following table, describe the purpose")
        assert "output None." in prompt

    def test_enrich_prompts_and_composes_from_one_sample(self, tmp_path):
        table = make_table("runs", ["id", "km"], [[str(i), str(i * 3)] for i in range(12)])
        gen = RecordingGenerator()
        store = EnrichmentStore(tmp_path / "enriched.json")
        enrich_tables([table], gen, store=store, ledger=TokenLedger())
        sample = sample_rows(table)
        assert len(sample) < table.row_count
        grid = markdown_grid(table, sample)
        assert gen.requests[0].prompt == PURPOSE_PROMPT.replace("{table}", serialize_markdown(table, grid))
        assert store.get("runs").text == enriched_text(table, gen.text, grid)

    def test_request_uses_token_cap(self):
        gen = RecordingGenerator()
        generate_purpose(SIMPLE, gen, SIMPLE_GRID, ledger=TokenLedger())
        request = gen.requests[0]
        assert request.max_tokens == PURPOSE_MAX_TOKENS == 256

    def test_none_sentinel_stored_as_empty(self):
        gen = ScriptedGenerator(responses=["None"])
        assert generate_purpose(SIMPLE, gen, SIMPLE_GRID, ledger=TokenLedger()) == ""

    def test_none_with_whitespace_counts_as_sentinel(self):
        gen = ScriptedGenerator(responses=["  None\n"])
        assert generate_purpose(SIMPLE, gen, SIMPLE_GRID, ledger=TokenLedger()) == ""

    def test_regular_purpose_returned_stripped(self):
        gen = ScriptedGenerator(responses=["  P. \n"])
        assert generate_purpose(SIMPLE, gen, SIMPLE_GRID, ledger=TokenLedger()) == "P."

    def test_tokens_recorded_to_ledger(self):
        ledger = TokenLedger()
        generate_purpose(SIMPLE, RecordingGenerator(), SIMPLE_GRID, ledger=ledger)
        assert ledger.stage_totals() == {"purpose": (11, 7)}

    def test_generation_failure_propagates(self):
        gen = ScriptedGenerator(responses=[ScriptedGenerator.FAIL])
        with pytest.raises(BackendError):
            generate_purpose(SIMPLE, gen, SIMPLE_GRID, ledger=TokenLedger())


class TestEnrichedText:
    def test_purpose_line_present(self):
        text = enriched_text(SIMPLE, "P.", SIMPLE_GRID)
        lines = text.split("\n")
        assert lines[0] == "Table name: songs"
        assert lines[1] == "Table purpose: P."
        assert lines[2].startswith("Table content: | id | title |")

    def test_empty_purpose_omits_the_line(self):
        text = enriched_text(SIMPLE, "", SIMPLE_GRID)
        assert "Table purpose:" not in text
        assert text.split("\n")[1].startswith("Table content: ")

    def test_begins_with_table_name(self):
        assert enriched_text(SIMPLE, "x", SIMPLE_GRID).startswith("Table name:")

    def test_purpose_changes_the_embedded_text_and_vector(self):
        e = HashingEmbedder(64)
        t1 = enriched_text(SIMPLE, "about songs", SIMPLE_GRID)
        t2 = enriched_text(SIMPLE, "about paintings", SIMPLE_GRID)
        assert t1 != t2
        assert not np.array_equal(e.embed(t1), e.embed(t2))

    def test_same_enriched_text_same_vector(self):
        e = HashingEmbedder(64)
        text = enriched_text(SIMPLE, "P.", SIMPLE_GRID)
        assert np.array_equal(e.embed(text), e.embed(text))


# ---------------------------------------------------------------------------
# Enrichment store and resumability
# ---------------------------------------------------------------------------


class TestEnrichment:
    def tables(self):
        return [
            make_table("a", ["x"], [["1"]]),
            make_table("b", ["y"], [["2"]]),
            make_table("c", ["z"], [["3"]]),
        ]

    def test_enriches_all_tables_in_sorted_order(self, tmp_path):
        gen = ScriptedGenerator(responses=["pa", "pb", "pc"])
        store = EnrichmentStore(tmp_path / "enriched.json")
        enrich_tables(self.tables(), gen, store=store, ledger=TokenLedger())
        assert sorted(store.texts()) == ["a", "b", "c"]
        assert store.get("a").purpose == "pa"
        assert store.get("c").purpose == "pc"

    def test_each_grid_is_rendered_once(self, monkeypatch, tmp_path):
        """The purpose prompt and the indexed text share one rendered grid."""
        rendered = []
        real = tablescout.corpus.markdown_grid

        def counting(table, sample):
            rendered.append(table.id)
            return real(table, sample)

        monkeypatch.setattr(tablescout.corpus, "markdown_grid", counting)
        monkeypatch.setattr(tablescout.indexing, "markdown_grid", counting)
        store = EnrichmentStore(tmp_path / "enriched.json")
        enrich_tables(self.tables(), ScriptedGenerator(responses=["pa", "pb", "pc"]), store=store, ledger=TokenLedger())
        assert rendered == ["a", "b", "c"]

    def test_resume_skips_already_enriched(self, tmp_path):
        path = tmp_path / "enriched.json"
        tables = self.tables()
        gen = ScriptedGenerator(responses=["pa", "pb", "pc"])
        enrich_tables(tables[:2], gen, store=EnrichmentStore(path), ledger=TokenLedger())
        assert len(gen.calls) == 2

        resumed = ScriptedGenerator(responses=["pc"])
        store = EnrichmentStore(path)
        enrich_tables(tables, resumed, store=store, ledger=TokenLedger())
        assert len(resumed.calls) == 1
        assert sorted(store.texts()) == ["a", "b", "c"]

    def test_rerun_is_idempotent(self, tmp_path):
        path = tmp_path / "enriched.json"
        gen = ScriptedGenerator(responses=["pa", "pb", "pc"])
        enrich_tables(self.tables(), gen, store=EnrichmentStore(path), ledger=TokenLedger())
        before = path.read_bytes()

        no_calls = ScriptedGenerator(responses=[])
        enrich_tables(self.tables(), no_calls, store=EnrichmentStore(path), ledger=TokenLedger())
        assert no_calls.calls == []
        assert path.read_bytes() == before

    def test_table_replaced_under_its_id_keeps_purpose_and_shows_new_grid(self, tmp_path):
        path = tmp_path / "enriched.json"
        gen = ScriptedGenerator(responses=["pa", "pb", "pc"])
        enrich_tables(self.tables(), gen, store=EnrichmentStore(path), ledger=TokenLedger())

        a, _, c = self.tables()
        replaced = make_table("b", ["w"], [["9"]])
        no_calls = ScriptedGenerator(responses=[])
        enrich_tables([a, replaced, c], no_calls, store=EnrichmentStore(path), ledger=TokenLedger())
        assert no_calls.calls == []
        text = enriched_text(replaced, "pb", markdown_grid(replaced, sample_rows(replaced)))
        assert EnrichmentStore(path).get("b") == EnrichedTable("b", "pb", text)
        assert "| w |" in text

    def test_file_backed_enrichment_replaces_the_store_once(self, tmp_path, monkeypatch):
        path = tmp_path / "enriched.json"
        replaced = []
        real_replace = os.replace

        def counting_replace(src, dst):
            replaced.append(dst)
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", counting_replace)
        tables = [make_table(f"t{i}", ["x"], [[str(i)]]) for i in range(6)]
        enrich_tables(tables, ScriptedGenerator(reply=lambda prompt: "p"), store=EnrichmentStore(path), ledger=TokenLedger())
        assert replaced == [path]
        assert not journal_of(path).exists()

    def test_failed_generation_leaves_the_journal_to_resume_from(self, tmp_path):
        path = tmp_path / "enriched.json"
        failing = ScriptedGenerator(responses=["pa", ScriptedGenerator.FAIL])
        with pytest.raises(BackendError):
            enrich_tables(self.tables(), failing, store=EnrichmentStore(path), ledger=TokenLedger())
        assert not path.exists()
        assert sorted(EnrichmentStore(path).texts()) == ["a"]

        resumed = ScriptedGenerator(responses=["pb", "pc"])
        store = EnrichmentStore(path)
        enrich_tables(self.tables(), resumed, store=store, ledger=TokenLedger())
        assert len(resumed.calls) == 2
        assert [store.get(i).purpose for i in sorted(store.texts())] == ["pa", "pb", "pc"]
        assert not journal_of(path).exists()

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_failure_at_the_kth_purpose_closes_the_journal_and_resumes(self, tmp_path, k):
        path = tmp_path / "cut" / "enriched.json"
        path.parent.mkdir()
        journal = journal_of(path)
        purposes = ["pa", "pb", "pc"]
        lines_on_disk = []

        def reply(prompt):
            # every record put so far is on disk before the next purpose is asked
            lines_on_disk.append(journal.read_bytes().count(b"\n") if journal.exists() else 0)
            if len(lines_on_disk) == k:
                raise BackendError("backend down")
            return purposes[len(lines_on_disk) - 1]

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                enrich_tables(self.tables(), ScriptedGenerator(reply=reply), store=EnrichmentStore(path), ledger=TokenLedger())
            except BackendError:
                pass
            else:
                pytest.fail("the failing purpose did not raise")
            gc.collect()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
        assert lines_on_disk == [0, 2, 3][:k]  # the header, then one line a record
        if k == 1:
            assert not journal.exists()
        else:
            assert journal.read_bytes().endswith(b"\n")
            assert [record["table_id"] for _, record in read_journal(journal, "journal")] == ["a", "b"][: k - 1]

        enrich_tables(self.tables(), ScriptedGenerator(responses=purposes[k - 1 :]), store=EnrichmentStore(path), ledger=TokenLedger())
        whole = tmp_path / "whole" / "enriched.json"
        whole.parent.mkdir()
        enrich_tables(self.tables(), ScriptedGenerator(responses=purposes), store=EnrichmentStore(whole), ledger=TokenLedger())
        assert path.read_bytes() == whole.read_bytes()
        assert not journal.exists()

    def test_completed_enrichment_leaves_only_the_store_file(self, tmp_path):
        path = tmp_path / "enriched.json"
        store = EnrichmentStore(path)
        enrich_tables(self.tables(), ScriptedGenerator(responses=["pa", "pb", "pc"]), store=store, ledger=TokenLedger())
        assert len(store) == 3 and not store.pending
        assert list(tmp_path.iterdir()) == [path]


# ---------------------------------------------------------------------------
# Dense index
# ---------------------------------------------------------------------------


def brute_force_topk(texts, embedder, query, k):
    """Independent exhaustive scan used as the search oracle."""
    q = embedder.embed(query)
    qn = np.linalg.norm(q)
    scored = []
    for tid, text in texts.items():
        v = embedder.embed(text)
        denom = qn * np.linalg.norm(v)
        scored.append((tid, float(np.dot(q, v) / denom) if denom else 0.0))
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[:k]


class TestDenseIndex:
    def texts(self, n=3):
        return {f"t{i}": f"Table name: t{i}\nTable content: | c | value {i} |" for i in range(n)}

    def test_one_entry_per_table(self):
        index = DenseIndex.build(self.texts(3), HashingEmbedder(32))
        assert len(index) == 3

    def test_exact_match_ranks_first_with_unit_score(self):
        texts = self.texts(4)
        e = HashingEmbedder(64)
        index = DenseIndex.build(texts, e)
        top = index.search(e.embed(texts["t2"]), k=2)
        assert top[0][0] == "t2"
        assert top[0][1] == pytest.approx(1.0)

    def test_k_clamps_to_index_size(self):
        e = HashingEmbedder(32)
        index = DenseIndex.build(self.texts(3), e)
        assert len(index.search(e.embed("anything"), k=50)) == 3

    def test_matches_brute_force_scan(self):
        e = HashingEmbedder(64)
        texts = {f"tab{i}": f"columns about topic {i % 7} and {i}" for i in range(40)}
        index = DenseIndex.build(texts, e)
        for qi in range(10):
            query = f"topic {qi}"
            assert index.search(e.embed(query), k=10) == brute_force_topk(texts, e, query, 10)

    def test_persist_reload_identical_results(self, tmp_path):
        e = HashingEmbedder(64)
        texts = self.texts(12)
        index = DenseIndex.build(texts, e)
        path = tmp_path / "index.npz"
        index.save(path)
        reloaded = DenseIndex.load(path, e.backend_id)
        for qi in range(10):
            q = e.embed(f"query number {qi}")
            assert index.search(q, k=5) == reloaded.search(q, k=5)

    def test_reload_refuses_backend_mismatch(self, tmp_path):
        e = HashingEmbedder(64)
        index = DenseIndex.build(self.texts(2), e)
        path = tmp_path / "index.npz"
        index.save(path)
        with pytest.raises(BackendError):
            DenseIndex.load(path, HashingEmbedder(32).backend_id)

    @pytest.mark.parametrize("cached", [False, True], ids=["plain", "caching"])
    def test_each_text_is_hashed_once(self, monkeypatch, cached):
        """The keys a caching embedder computed for its lookups are the
        index's keys; any other embedder's are computed once by the build."""
        hashed = []
        real = tablescout.services.text_key

        def counting(text):
            hashed.append(text)
            return real(text)

        monkeypatch.setattr(tablescout.services, "text_key", counting)
        # counted too if the build hashed through a name of its own module
        monkeypatch.setattr(tablescout.indexing, "text_key", counting, raising=False)
        texts = self.texts(5)
        embedder = HashingEmbedder(32)
        index = DenseIndex.build(texts, CachingEmbedder(embedder) if cached else embedder)
        assert hashed == [texts[tid] for tid in sorted(texts)]
        assert index.keys == tuple(real(texts[tid]) for tid in index.ids)

    def test_empty_corpus_empty_results(self):
        index = DenseIndex.build({}, HashingEmbedder(16))
        assert len(index) == 0
        assert index.search(np.ones(16), k=10) == []

    def test_score_ties_break_by_ascending_id(self):
        e = HashingEmbedder(32)
        text = "identical text"
        index = DenseIndex.build({"b": text, "a": text, "c": text}, e)
        got = index.search(e.embed(text), k=3)
        assert [t for t, _ in got] == ["a", "b", "c"]

    def test_rejects_wrong_query_dimension(self):
        index = DenseIndex.build(self.texts(2), HashingEmbedder(16))
        with pytest.raises(BackendError, match="width 8, but the index holds vectors of width 16"):
            index.search(np.ones(8), k=1)

    @pytest.mark.parametrize(
        "ids, keys, complaint",
        [
            (["a", "b", "c"], None, "one vector"),
            (["a", "b"], ["ka"], "one vector"),
            (["a", "a"], None, "unique"),
        ],
        ids=["more-ids-than-vectors", "fewer-keys-than-ids", "repeated-id"],
    )
    def test_rejects_ids_that_are_not_one_per_vector(self, ids, keys, complaint):
        with pytest.raises(ValueError, match=complaint):
            DenseIndex(ids=ids, vectors=np.ones((2, 4)), backend_id="b", keys=keys)

    def test_index_without_text_keys_searches_but_cannot_be_saved(self, tmp_path):
        index = DenseIndex(ids=["a", "b"], vectors=np.eye(2), backend_id="b")
        assert [t for t, _ in index.search(np.array([0.0, 1.0]), k=1)] == ["b"]
        with pytest.raises(ValueError, match="without text keys"):
            index.save(tmp_path / "index.npz")
        assert not (tmp_path / "index.npz").exists()

    def test_rejects_nonpositive_k(self):
        index = DenseIndex.build(self.texts(2), HashingEmbedder(16))
        with pytest.raises(ValueError):
            index.search(np.ones(16), k=0)


def scalar_scan(ids, vectors, query, k):
    """The reference ranking: the scalar ``cosine`` of every row, ties by id."""
    scored = sorted((-cosine(v, query), tid) for tid, v in zip(ids, vectors))
    return [(tid, -neg) for neg, tid in scored[:k]]


cells = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 0.5, 1 / 3]), st.floats(-10, 10))


@st.composite
def near_ties(draw):
    """Rows with duplicates, one-ulp neighbours, zero rows and rows scaled
    where squares underflow or norms leave the bounded range; a query that is
    zero, random or one of the rows; and k up to beyond the row count."""
    d = draw(st.integers(1, 6))
    vector = st.lists(cells, min_size=d, max_size=d).map(np.array)
    rows = []
    for row in draw(st.lists(vector, min_size=1, max_size=8)):
        rows.append(row)
        kind = draw(st.sampled_from(["alone", "duplicate", "one ulp", "zero", "scaled"]))
        if kind == "duplicate":
            rows.append(row.copy())
        elif kind == "one ulp":
            neighbour = row.copy()
            j = draw(st.integers(0, d - 1))
            neighbour[j] = np.nextafter(neighbour[j], draw(st.sampled_from([-np.inf, np.inf])))
            rows.append(neighbour)
        elif kind == "zero":
            rows.append(np.zeros(d))
        elif kind == "scaled":
            rows.append(row * draw(st.sampled_from([1e-160, 1e120])))
    query = draw(st.one_of(st.just(np.zeros(d)), vector, st.sampled_from(rows)))
    order = draw(st.permutations(range(len(rows))))
    ids = [f"t{i:02d}" for i in order]
    k = draw(st.integers(1, len(rows) + 2))
    return ids, np.array(rows), query, k


@given(case=near_ties())
@example(case=(["a", "b"], np.array([[1.0, 2.0], [1.0, np.nextafter(2.0, 3.0)]]), np.array([1.0, 2.0]), 1))
@example(case=(["a", "b", "c"], np.ones((3, 2)), np.zeros(2), 5))
@settings(max_examples=300, deadline=None)
def test_search_equals_scalar_cosine_scan_on_near_ties(case):
    ids, vectors, query, k = case
    index = DenseIndex(ids, vectors, backend_id="fixed")
    assert index.search(query, k) == scalar_scan(ids, vectors, query, k)
