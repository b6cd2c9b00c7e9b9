"""Tests for join-compatibility scoring and the pairwise cache."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tablescout import (
    BackendError,
    CompatibilityCache,
    CorpusError,
    HashingEmbedder,
    Table,
    TableCorpus,
    build_cache,
    column_pair_score,
    pool_corpora,
)
from tablescout.compatibility import (
    JOINABILITY_THRESHOLD,
    ColumnProfile,
    GoldJoin,
    JoinEdge,
    _blocked_pairs,
    evaluate_cache,
    gold_joins_from_records,
    header_text,
    profile_columns,
    table_compatibility,
)
from tablescout import compatibility
from tablescout.artifacts import FORMAT_VERSION
from tablescout.corpus import NULL, normalize_value

from interpreter import interpreter_flags
from synth import (
    MappedEmbedder,
    oracle_has_valid_pair,
    oracle_pair_score,
    oracle_table_compatibility,
    random_corpus,
)


def col(values, name="c", table="t"):
    """A one-column table, its header text ``table.name``."""
    return make_table(table, [name], [[value] for value in values])


def make_table(table_id, column_names, rows):
    return Table.build(table_id, table_id, column_names, rows)


def profile(table):
    """The profile of the one column of a ``col`` table, profiled alone: no
    blocked pair names it, so it holds no header vector."""
    return profile_columns([table], HashingEmbedder(dimension=16))[table.id][0]


def pair_score(a, b, embedder):
    """:func:`column_pair_score` of the one columns of two ``col`` tables,
    profiled together, so a valid pair's two headers are embedded."""
    profiles = profile_columns([a, b], embedder)
    return column_pair_score(profiles[a.id][0], profiles[b.id][0])


def is_key(column):
    return profile(column).is_key


def overlap(va, vb):
    """The value term of the pair score of two columns holding ``va`` and
    ``vb``: their headers differ in name and embed orthogonally, so the
    header blend is 0.0 and the score is exactly half the overlap."""
    a = col(va, name="a", table="t1")
    b = col(vb, name="b", table="t2")
    emb = MappedEmbedder({"t1.a": [1.0, 0.0], "t2.b": [0.0, 1.0]})
    return 2 * pair_score(a, b, emb)


def compat(ti, tj, embedder):
    """:func:`table_compatibility` over every column pair of two tables."""
    return table_compatibility(ti, tj, profile_columns([ti, tj], embedder))


def same_name(a, b):
    return profile(a).name_key == profile(b).name_key


class CountingEmbedder(HashingEmbedder):
    def __init__(self, dimension=64):
        super().__init__(dimension=dimension)
        self.calls = 0
        self.batched = []

    def embed(self, text):
        self.calls += 1
        return super().embed(text)

    def embed_many(self, texts):
        self.calls += len(texts)
        self.batched.extend(texts)
        return super().embed_many(texts)


# ---------------------------------------------------------------------------
# Column-level signals
# ---------------------------------------------------------------------------


class TestColumnUniqueness:
    def test_all_distinct(self):
        assert is_key(col(["1", "2", "3"]))

    def test_repeated_value(self):
        assert not is_key(col(["1", "1", "2"]))

    def test_nulls_ignored(self):
        assert is_key(col(["1", NULL, "2", NULL]))

    def test_all_null_is_not_a_key(self):
        assert not is_key(col([NULL, NULL]))

    def test_empty_column(self):
        assert not is_key(col([]))

    def test_normalization_collapses_duplicates(self):
        assert not is_key(col([" A ", "a"]))


# pieces that strip or casefold change: unicode spaces, sharp s, dotted I,
# ligatures and a decomposed dotted i
TRICKY_PIECES = [" ", "\u00a0", "\u2003", "\u3000", "\t", "ß", "ẞ", "SS", "ss", "İ", "i\u0307", "ﬁ", "FI", "ŉ", "a", "A"]
CELLS = st.one_of(
    st.none(),
    st.lists(st.one_of(st.sampled_from(TRICKY_PIECES), st.characters()), max_size=4).map("".join),
)


@given(
    values=st.lists(CELLS, max_size=12),
    # no sum of squares overflows
    vector=st.lists(st.floats(-1e150, 1e150), min_size=1, max_size=8),
)
@example(values=["ß", " SS", "ss\u00a0"], vector=[1.0])
@example(values=["ﬁ", "FI", "x"], vector=[3.0, 4.0])
@example(values=["İ", "i\u0307", NULL], vector=[0.0])
@example(values=["", NULL, " "], vector=[1e-160, 1e-160])
@example(values=["", NULL], vector=[1e150, -1e150])
@settings(max_examples=300, deadline=None)
def test_profile_follows_normalize_value(values, vector):
    """The profile's one-pass normalization is :func:`normalize_value` per
    cell, and ``""`` is a value while NULL is none."""
    vec = np.array(vector, dtype=np.float64)
    table = col(values)
    p = ColumnProfile.of(table, table.columns[0]).with_vector(vec)
    assert p.header == "t.c"
    normalized = [normalize_value(v) for v in values if v is not None]
    assert p.values == set(normalized)
    assert p.is_key == (bool(normalized) and len(set(normalized)) == len(normalized))
    assert p.norm == float(np.linalg.norm(vec))


class TestSubsetRelation:
    """A pair with a key side is valid exactly when the smaller value set is
    a non-empty subset of the larger; a valid pair's overlap is their size
    ratio."""

    def test_contained(self):
        assert overlap(["1", "2"], ["1", "2", "3"]) == 2 / 3

    def test_contained_other_direction(self):
        assert overlap(["1", "2", "3"], ["1", "2"]) == 2 / 3

    def test_partial_overlap_fails(self):
        assert overlap(["1", "4"], ["1", "2", "3"]) == 0.0

    def test_empty_side_fails(self):
        # the other side is a key, and the empty set is a subset of it
        assert overlap([], ["1", "2"]) == 0.0
        assert overlap([NULL], ["1", "2"]) == 0.0

    def test_duplicates_do_not_matter(self):
        # {1, 2} vs {1, 2}: the second side is the key
        assert overlap(["1", "1", "2"], ["2", "1"]) == 1.0


class TestJaccard:
    """The overlap of a contained pair, ``len(smaller) / len(larger)``, is
    their Jaccard; a pair that is not contained scores 0.0 whatever its
    Jaccard."""

    def test_half_overlap(self):
        # Jaccard 0.5, but neither set contains the other
        assert overlap(["1", "2", "3"], ["2", "3", "4"]) == 0.0

    def test_identical_sets(self):
        assert overlap(["1", "2"], ["2", "1", "1"]) == 1.0

    def test_disjoint_sets(self):
        assert overlap(["1"], ["2"]) == 0.0

    def test_empty_union(self):
        assert overlap([NULL], []) == 0.0

    def test_distinct_sets_not_multisets(self):
        # {1} vs {1}: overlap 1.0 regardless of repetition counts
        assert overlap(["1", "1", "1"], ["1"]) == 1.0


class TestHeaderSignals:
    def test_exact_match_tolerates_case_and_separators(self):
        assert same_name(col([], name="museum_id"), col([], name="Museum-ID"))
        assert same_name(col([], name="city name"), col([], name="CITY_NAME"))

    def test_exact_match_rejects_different_names(self):
        assert not same_name(col([], name="id"), col([], name="name"))

    def test_header_text(self):
        museums = col([], name="id", table="museums")
        assert header_text(museums, museums.columns[0]) == "museums.id"

    # The header cases below score pairs that are valid with Jaccard 1.0, so
    # s = 0.5 + 0.5 * (0.5*sem + 0.5*ex) isolates the header blend.

    def test_semantic_score_identical_headers(self):
        emb = MappedEmbedder({"t1.a": [0.6, 0.8], "t2.b": [0.6, 0.8]})
        a = col(["1"], name="a", table="t1")
        b = col(["1"], name="b", table="t2")
        # sem 1.0, ex 0: s = 0.5 + 0.5 * 0.5
        assert pair_score(a, b, emb) == pytest.approx(0.75, abs=1e-12)

    def test_semantic_score_clamped_at_zero(self):
        emb = MappedEmbedder({"t1.a": [1.0, 0.0], "t2.b": [-1.0, 0.0]})
        a = col(["1"], name="a", table="t1")
        b = col(["1"], name="b", table="t2")
        assert pair_score(a, b, emb) == pytest.approx(0.5, abs=1e-12)

    def test_name_score_blend(self):
        emb = MappedEmbedder({"t1.a": [1.0, 0.0], "t2.b": [0.6, 0.8]})
        a = col(["1"], name="a", table="t1")
        b = col(["1"], name="b", table="t2")
        # ex 0, sem 0.6: name 0.3
        assert pair_score(a, b, emb) == pytest.approx(0.5 + 0.5 * 0.3, abs=1e-12)

    def test_name_score_full_agreement(self):
        emb = HashingEmbedder(dimension=64)
        # two tables named m, so both headers are m.id
        a = Table.build("m1", "m", ["id"], [["1"]])
        b = Table.build("m2", "m", ["id"], [["1"]])
        assert pair_score(a, b, emb) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Column pair scores
# ---------------------------------------------------------------------------


class TestColumnPairScore:
    def test_worked_example(self):
        # unique parent key, child subset of 4 of its 5 values, same header
        # name, header similarity 0.9: s = 1 * (0.5*0.8 + 0.5*0.95) = 0.875
        emb = MappedEmbedder(
            {
                "t1.museum_id": [1.0, 0.0],
                "t2.museum_id": [0.9, math.sqrt(1.0 - 0.81)],
            }
        )
        parent = col(["1", "2", "3", "4", "5"], name="museum_id", table="t1")
        child = col(["1", "2", "3", "4", "1"], name="museum_id", table="t2")
        assert overlap(parent.columns[0].values, child.columns[0].values) == 0.8
        assert pair_score(parent, child, emb) == pytest.approx(0.875, abs=1e-12)
        assert pair_score(child, parent, emb) == pytest.approx(0.875, abs=1e-12)

    def test_neither_side_unique_scores_zero(self):
        emb = HashingEmbedder(dimension=16)
        a = col(["1", "1", "2"], name="x", table="t1")
        b = col(["1", "2", "2"], name="x", table="t2")
        assert profile(a).values == profile(b).values  # full overlap, yet no key side
        assert pair_score(a, b, emb) == 0.0
        # " A " and "a" normalize to one value, so neither side is a key
        a = col([" A ", "a"], name="x", table="t1")
        b = col(["a", "A"], name="x", table="t2")
        assert pair_score(a, b, emb) == 0.0

    def test_no_containment_scores_zero(self):
        emb = HashingEmbedder(dimension=16)
        a = col(["1", "4"], name="x", table="t1")
        b = col(["1", "2", "3"], name="x", table="t2")
        assert pair_score(a, b, emb) == 0.0
        assert pair_score(col([NULL], name="x", table="t1"), b, emb) == 0.0

    def test_valid_pair_scores_positive(self):
        emb = HashingEmbedder(dimension=16)
        a = col(["1", "2", "3"], name="a", table="t1")
        b = col(["2"], name="b", table="t2")
        assert pair_score(a, b, emb) > 0.0

    @given(
        va=st.lists(st.sampled_from(["1", "2", "3", "b", " 1 ", NULL]), max_size=10),
        vb=st.lists(st.sampled_from(["1", "2", "3", "b", " 1 ", NULL]), max_size=10),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_independent_oracle(self, va, vb):
        emb = HashingEmbedder(dimension=32)
        a = col(va, name="alpha", table="t1")
        b = col(vb, name="beta", table="t2")
        s = pair_score(a, b, emb)
        assert 0.0 <= s <= 1.0
        # valid exactly when positive: a valid pair shares at least one value
        assert (s > 0.0) == oracle_has_valid_pair(a, b)
        assert s == oracle_pair_score(a, a.columns[0], b, b.columns[0], emb)


# ---------------------------------------------------------------------------
# Table-level compatibility
# ---------------------------------------------------------------------------


def two_table_fixture():
    """Two valid column pairs scoring 0.875 and 0.6; cross pairs disjoint."""
    emb = MappedEmbedder(
        {
            "t1.museum_id": [1.0, 0.0],
            "t2.museum_id": [0.9, math.sqrt(1.0 - 0.81)],
            "t1.city": [0.0, 1.0],
            "t2.town": [math.sqrt(1.0 - 0.04), 0.2],
        }
    )
    t1 = make_table(
        "t1",
        ["museum_id", "city"],
        [
            ["1", "rome"],
            ["2", "oslo"],
            ["3", "bern"],
            ["4", "kyiv"],
            ["5", "lima"],
        ],
    )
    t2 = make_table(
        "t2",
        ["museum_id", "town"],
        [
            ["1", "rome"],
            ["2", "oslo"],
            ["3", "bern"],
            ["4", "rome"],
            ["1", "oslo"],
        ],
    )
    return t1, t2, emb


class TestTableCompatibility:
    def test_takes_max_over_column_pairs(self):
        t1, t2, emb = two_table_fixture()
        # city/town: {rome,oslo,bern,kyiv,lima} vs {rome,oslo,bern}: jac 0.6,
        # ex 0, sem 0.2, name 0.1 -> s = 0.35; museum_id pair scores 0.875
        edge = compat(t1, t2, emb)
        assert edge is not None
        assert edge.score == pytest.approx(0.875, abs=1e-12)
        assert (edge.left_table, edge.left_column) == ("t1", "museum_id")
        assert (edge.right_table, edge.right_column) == ("t2", "museum_id")

    def test_argument_order_is_irrelevant(self):
        t1, t2, emb = two_table_fixture()
        assert compat(t1, t2, emb) == compat(t2, t1, emb)

    def test_no_valid_pair_returns_none(self):
        emb = HashingEmbedder(dimension=16)
        t1 = make_table("t1", ["a"], [["1"], ["2"]])
        t2 = make_table("t2", ["b"], [["9"], ["8"]])
        assert compat(t1, t2, emb) is None

    def test_same_table_rejected(self):
        emb = HashingEmbedder(dimension=16)
        t1 = make_table("t1", ["a"], [["1"]])
        with pytest.raises(ValueError):
            compat(t1, t1, emb)

    def test_tie_breaks_to_lowest_position_pair(self):
        # all four cross pairs carry identical signals, so the winner must be
        # the (0, 0) position pair of the lower-id table ordering
        emb = MappedEmbedder(
            {
                "ta.a": [1.0, 0.0],
                "ta.b": [1.0, 0.0],
                "tb.x": [1.0, 0.0],
                "tb.y": [1.0, 0.0],
            }
        )
        ta = make_table("ta", ["a", "b"], [["1", "1"], ["2", "2"]])
        tb = make_table("tb", ["x", "y"], [["1", "1"], ["2", "2"]])
        edge = compat(tb, ta, emb)
        assert edge is not None
        assert (edge.left_column, edge.right_column) == ("a", "x")

    def test_matches_oracle_on_random_corpora(self):
        emb = HashingEmbedder(dimension=48)
        rng = np.random.default_rng(7)
        checked = 0
        for _ in range(30):
            corpus = random_corpus(rng, max_tables=4, max_cols=5, max_rows=40)
            tables = sorted(corpus, key=lambda t: t.id)
            for i, ti in enumerate(tables):
                for tj in tables[i + 1 :]:
                    edge = compat(ti, tj, emb)
                    want = oracle_table_compatibility(ti, tj, emb)
                    if want is None:
                        assert edge is None
                        continue
                    assert edge is not None
                    want_score, want_cols = want
                    assert edge.score == want_score
                    assert (edge.left_column, edge.right_column) == want_cols
                    checked += 1
        assert checked > 20  # the corpora actually exercised scoring


# ---------------------------------------------------------------------------
# The cache
# ---------------------------------------------------------------------------


def small_corpus():
    t1 = make_table("t1", ["id", "city"], [["1", "rome"], ["2", "oslo"], ["3", "bern"]])
    t2 = make_table("t2", ["id", "pop"], [["1", "100"], ["2", "100"], ["1", "50"]])
    t3 = make_table("t3", ["code"], [["zz"], ["yy"]])
    t4 = make_table("t4", ["city"], [["rome"], ["oslo"]])
    return TableCorpus(tables=(t1, t2, t3, t4), provenance={})


class TestCompatibilityCache:
    def test_build_skips_incompatible_pairs(self):
        corpus = small_corpus()
        emb = HashingEmbedder(dimension=64)
        cache = build_cache(corpus, emb)
        assert len(cache) <= 6  # at most C(4, 2) pairs
        assert cache.score("t1", "t2") > 0.0
        assert cache.score("t1", "t4") > 0.0  # city values contained, t4 unique
        assert cache.score("t1", "t3") == 0.0
        assert cache.edge("t2", "t3") is None
        assert cache.score("t1", "t1") == 0.0
        assert cache.score("t1", "nowhere") == 0.0

    def test_scores_and_joins_are_orientation_safe(self):
        cache = build_cache(small_corpus(), HashingEmbedder(dimension=64))
        assert cache.score("t2", "t1") == cache.score("t1", "t2")
        ab = cache.edge("t1", "t2").oriented("t1")
        ba = cache.edge("t2", "t1").oriented("t2")
        assert ab == ("id", "id")
        assert ba == (ab[1], ab[0])

    def test_orienting_an_edge_on_a_table_off_it_raises(self):
        edge = JoinEdge(0.5, "t1", "a", "t2", "b")
        assert (edge.oriented("t1"), edge.oriented("t2")) == (("a", "b"), ("b", "a"))
        with pytest.raises(KeyError, match="'t3' is not part of this edge"):
            edge.oriented("t3")

    def test_single_table_corpus_gives_empty_cache(self):
        corpus = TableCorpus(tables=(make_table("t1", ["a"], [["1"]]),), provenance={})
        cache = build_cache(corpus, HashingEmbedder(dimension=16))
        assert len(cache) == 0

    def test_each_header_embedded_once(self):
        emb = CountingEmbedder(dimension=64)
        build_cache(small_corpus(), emb)
        # the blocked pairs are t1.id - t2.id and t1.city - t4.city; t2.pop
        # and t3.code have no partner, so their headers are never embedded
        assert emb.batched == ["t1.id", "t1.city", "t2.id", "t4.city"]
        assert emb.calls == 4

    def test_renamed_table_headers_follow_its_pooled_name(self):
        first = make_table("orders", ["order_id", "total"], [["1", "9.50"], ["2", "3.25"]])
        second = make_table("orders", ["order_id", "total"], [["1", "8.00"]])
        corpus = pool_corpora([("b", [second]), ("a", [first])])
        assert corpus.get("orders__2").columns is second.columns
        emb = CountingEmbedder(dimension=16)
        build_cache(corpus, emb)
        # the order_id columns are the one blocked pair; totals are not contained
        assert emb.batched == ["orders.order_id", "orders__2.order_id"]

    def test_round_trip_preserves_everything(self, tmp_path):
        emb = HashingEmbedder(dimension=64)
        cache = build_cache(small_corpus(), emb)
        path = tmp_path / "cache.json"
        cache.save(path)
        loaded = CompatibilityCache.load(path, expected_backend_id=emb.backend_id)
        assert loaded.backend_id == cache.backend_id
        assert len(loaded) == len(cache)
        for edge in cache:
            other = loaded.edge(edge.left_table, edge.right_table)
            assert other == edge

    def test_rebuild_writes_identical_bytes(self, tmp_path):
        emb = HashingEmbedder(dimension=64)
        p1 = tmp_path / "one.json"
        p2 = tmp_path / "two.json"
        build_cache(small_corpus(), emb).save(p1)
        build_cache(small_corpus(), emb).save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_load_rejects_backend_mismatch(self, tmp_path):
        cache = build_cache(small_corpus(), HashingEmbedder(dimension=64))
        path = tmp_path / "cache.json"
        cache.save(path)
        with pytest.raises(BackendError):
            CompatibilityCache.load(path, expected_backend_id="http:other-model")

    @pytest.mark.parametrize(
        "body, complaint",
        [
            ({"pairs": {"a|b": {"cs": 0.5, "join": ["a.c1", "b.c2"]}}}, "missing field 'edges'"),
            ({"edges": {"a": 0.5}}, "field 'edges' holds dict"),
            ({"edges": [[0.5, "a", "c1", "b"]]}, "edge 0 is not a number and four strings"),
            ({"edges": [[0.5, "a", "c1", "b", 2]]}, "edge 0 is not a number and four strings"),
            ({"edges": [["0.5", "a", "c1", "b", "c2"]]}, "edge 0 is not a number and four strings"),
            ({"edges": [[True, "a", "c1", "b", "c2"]]}, "edge 0 is not a number and four strings"),
            ({"edges": [[0.5, "a", "c1", "b", "c2"], [0.5, "b", "c2", "a", "c1"]]}, "edge 1: edge sides"),
            ({"edges": [[0.5, "a", "c1", "b", "c2"], [0.4, "a", "c3", "b", "c4"]]}, "edge 1 repeats"),
            ({"edges": [[10**400, "a", "c1", "b", "c2"]]}, "edge 0: score"),
        ],
        ids=["old-layout", "edges-dict", "short-row", "number-column", "string-score", "bool-score",
             "reversed-sides", "repeated-pair", "huge-score"],
    )
    def test_load_rejects_malformed_rows(self, tmp_path, body, complaint):
        path = tmp_path / "cache.json"
        path.write_text(json.dumps({"version": FORMAT_VERSION, "backend_id": "x", **body}))
        with pytest.raises(CorpusError, match=complaint) as refused:
            CompatibilityCache.load(path)
        assert str(path) in str(refused.value)

    def test_load_rejects_malformed_payloads(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text("{not json")
        with pytest.raises(CorpusError):
            CompatibilityCache.load(path)

    def test_add_validates_edges(self):
        cache = CompatibilityCache()
        with pytest.raises(ValueError):
            cache.add(JoinEdge(0.5, "b", "x", "a", "y"))
        for score in (0.0, -0.5, math.nan, math.inf):
            with pytest.raises(ValueError, match="finite and positive"):
                cache.add(JoinEdge(score, "a", "x", "b", "y"))
        assert len(cache) == 0

    def test_saved_bytes_do_not_depend_on_insertion_order(self, tmp_path):
        edges = [
            JoinEdge(0.75, "a", "k", "b", "fk"),
            JoinEdge(0.5, "a", "k", "c", "a_k"),
            JoinEdge(1.0000000000000002, "b", "fk", "c", "x"),
        ]
        CompatibilityCache(edges, backend_id="stub").save(tmp_path / "one.json")
        CompatibilityCache(reversed(edges), backend_id="stub").save(tmp_path / "two.json")
        assert (tmp_path / "one.json").read_bytes() == (tmp_path / "two.json").read_bytes()
        rows = json.loads((tmp_path / "one.json").read_text(encoding="utf-8"))["edges"]
        assert rows == [[e.score, e.left_table, e.left_column, e.right_table, e.right_column] for e in edges]

    def test_cache_agrees_with_oracle_on_random_corpora(self):
        emb = HashingEmbedder(dimension=48)
        rng = np.random.default_rng(11)
        for _ in range(10):
            corpus = random_corpus(rng, max_tables=4, max_cols=5, max_rows=30)
            cache = build_cache(corpus, emb)
            tables = sorted(corpus, key=lambda t: t.id)
            for i, ti in enumerate(tables):
                for tj in tables[i + 1 :]:
                    want = oracle_table_compatibility(ti, tj, emb)
                    if want is None:
                        assert cache.edge(ti.id, tj.id) is None
                    else:
                        assert cache.score(ti.id, tj.id) == want[0]
                        assert cache.edge(ti.id, tj.id).oriented(ti.id) == want[1]


# table ids and column names as a pooled corpus may hold them: "|", ".",
# quotes, backslashes and newlines among any other text
NAMES = st.text(alphabet=st.characters(exclude_categories=("Cs",)) | st.sampled_from('|."\'\\\n'), max_size=6)
SCORES = st.floats(min_value=0.0, max_value=sys.float_info.max, exclude_min=True)


@given(rows=st.lists(st.tuples(SCORES, NAMES, NAMES, NAMES, NAMES), max_size=8))
@example(rows=[(0.5, "a|b", "x.y", "a", 'q"\n'), (1.0000000000000002, "a|b", "k", "a|b.c", "|")])
@settings(max_examples=80, deadline=None)
def test_cache_round_trip_keeps_names_and_score_bits(tmp_path_factory, rows):
    edges = {}
    for score, a, column_a, b, column_b in rows:
        if a != b:
            (a, column_a), (b, column_b) = sorted([(a, column_a), (b, column_b)])
            edges[(a, b)] = JoinEdge(score, a, column_a, b, column_b)
    path = tmp_path_factory.mktemp("cache") / "compat_cache.json"
    CompatibilityCache(edges.values(), backend_id="stub").save(path)
    loaded = CompatibilityCache.load(path, "stub")
    assert len(loaded) == len(edges)
    for (a, b), edge in edges.items():
        got = loaded.edge(a, b)
        assert got == edge
        assert got.score.hex() == edge.score.hex()


# ---------------------------------------------------------------------------
# Value blocking in build_cache
# ---------------------------------------------------------------------------

# " A ", "a" and "A" collapse to one value; "1" and "2" make keys and subsets
BLOCKING_VALUES = ["1", "2", "3", " A ", "a", "A", "b", NULL]


@st.composite
def blocking_corpora(draw):
    """Small corpora with all-NULL and empty columns, equal value sets on
    both sides (a table may repeat an earlier one's rows reversed), values
    that collapse under normalization, non-key columns and, optionally, one
    value held by every column."""
    shared = draw(st.booleans())
    tables = []
    for t in range(draw(st.integers(2, 5))):
        names = draw(
            st.lists(st.sampled_from(["id", "ID", "ref-id", "ref_id", "x"]), min_size=1, max_size=3, unique=True)
        )
        if tables and draw(st.booleans()):
            earlier = draw(st.sampled_from(tables))
            rows = [list(earlier.row(i))[: len(names)] for i in reversed(range(earlier.row_count))]
            rows = [row + [NULL] * (len(names) - len(row)) for row in rows]
        else:
            n_rows = draw(st.integers(0, 6))
            cells = st.lists(st.sampled_from(BLOCKING_VALUES), min_size=len(names), max_size=len(names))
            rows = draw(st.lists(cells, min_size=n_rows, max_size=n_rows))
        if shared and rows:
            rows[0] = ["shared"] * len(names)
        tables.append(make_table(f"t{t}", names, rows))
    return TableCorpus(tables=tuple(tables), provenance={})


@given(corpus=blocking_corpora())
@settings(max_examples=300, deadline=None)
def test_blocking_matches_brute_force(corpus):
    emb = HashingEmbedder(dimension=32)
    cache = build_cache(corpus, emb)
    tables = sorted(corpus, key=lambda t: t.id)
    want = {}
    for i, ti in enumerate(tables):
        for tj in tables[i + 1 :]:
            oracle = oracle_table_compatibility(ti, tj, emb)
            if oracle is not None:
                want[(ti.id, tj.id)] = oracle
    got = {(e.left_table, e.right_table): (e.score, (e.left_column, e.right_column)) for e in cache}
    assert got == want


@given(corpus=blocking_corpora())
@settings(max_examples=300, deadline=None)
def test_blocked_column_pairs_give_the_all_pairs_edge(corpus):
    emb = HashingEmbedder(dimension=32)
    tables = sorted(corpus, key=lambda t: t.id)
    profiles = profile_columns(tables, emb)
    blocked = _blocked_pairs(profiles)
    for i, ti in enumerate(tables):
        for tj in tables[i + 1 :]:
            everything = table_compatibility(ti, tj, profiles)
            pairs = blocked.get((ti.id, tj.id), ())
            assert table_compatibility(tj, ti, profiles, pairs) == everything


@given(corpus=blocking_corpora())
@settings(max_examples=300, deadline=None)
def test_embedded_headers_are_those_of_the_blocked_columns(corpus):
    """The embedder sees each header of a column that a blocked pair names
    once, in table then column order, and no other; every column of a valid
    pair is among them, and only their profiles hold a vector."""
    emb = CountingEmbedder(dimension=32)
    tables = sorted(corpus, key=lambda t: t.id)
    profiles = profile_columns(tables, emb)
    named = set()
    for (left, right), pairs in _blocked_pairs(profiles).items():
        for pos_left, pos_right in pairs:
            named |= {(left, pos_left), (right, pos_right)}
    headers = [header_text(t, c) for t in tables for pos, c in enumerate(t.columns) if (t.id, pos) in named]
    assert emb.batched == headers
    for t in tables:
        for pos, p in enumerate(profiles[t.id]):
            assert (p.vector is not None) == ((t.id, pos) in named)
            assert p.norm == (float(np.linalg.norm(p.vector)) if p.vector is not None else 0.0)
    for i, ti in enumerate(tables):
        for tj in tables[i + 1 :]:
            for pa, ca in enumerate(ti.columns):
                for pb, cb in enumerate(tj.columns):
                    if oracle_pair_score(ti, ca, tj, cb, emb) > 0.0:
                        assert {(ti.id, pa), (tj.id, pb)} <= named


def test_no_joinable_column_makes_no_embedding_call():
    corpus = TableCorpus(
        tables=(
            make_table("t1", ["a", "b"], [["1", "x"], ["2", "y"]]),
            make_table("t2", ["c"], [["3"], ["4"]]),
        ),
        provenance={},
    )
    emb = CountingEmbedder(dimension=16)
    assert len(build_cache(corpus, emb)) == 0
    assert emb.calls == 0 and emb.batched == []


def test_valid_pair_of_separate_profile_calls_is_refused_naming_both_columns():
    """A valid pair whose side was profiled where nothing paired it holds no
    header vector: the score names both columns, and the one without it."""
    emb = HashingEmbedder(dimension=16)
    t1 = make_table("t1", ["a"], [["1"], ["2"]])
    t2 = make_table("t2", ["b"], [["1"], ["2"], ["3"]])
    t3 = make_table("t3", ["c"], [["2"], ["1"]])
    # t1.a is paired with t3.c, so it holds a vector; t2.b, profiled alone, does not
    profiles = {**profile_columns([t1, t3], emb), **profile_columns([t2], emb)}
    message = r"valid column pair 't1\.a', 't2\.b': 't2\.b' holds no header vector"
    with pytest.raises(ValueError, match=message):
        column_pair_score(profiles["t1"][0], profiles["t2"][0])
    with pytest.raises(ValueError, match=message):
        table_compatibility(t2, t1, profiles)
    # an invalid pair still scores 0.0 without a vector
    assert column_pair_score(profile(make_table("t4", ["d"], [["9"]])), profiles["t2"][0]) == 0.0


# writes the cache of six synthetic corpora into the directory argv[1]
HASH_SEED_RUN = """
import sys
import numpy as np
from synth import random_corpus
from tablescout import HashingEmbedder, build_cache
for seed in range(6):
    corpus = random_corpus(np.random.default_rng(seed), max_tables=8, max_cols=6, max_rows=60)
    build_cache(corpus, HashingEmbedder(dimension=32)).save(f"{sys.argv[1]}/cache{seed}.json")
"""


def test_cache_bytes_do_not_depend_on_the_hash_seed(tmp_path, pytestconfig):
    """String hashes, and with them set and Counter order, change with
    ``PYTHONHASHSEED``; the saved cache must not."""
    here = Path(__file__).resolve().parent
    pythonpath = os.pathsep.join([str(here.parent / "src"), str(here)])
    flags = interpreter_flags(pytestconfig)
    for hash_seed in ("0", "1"):
        out = tmp_path / hash_seed
        out.mkdir()
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": pythonpath}
        subprocess.run([sys.executable, *flags, "-c", HASH_SEED_RUN, str(out)], env=env, check=True)
    saved = sorted((tmp_path / "0").iterdir())
    assert len(saved) == 6
    assert sum(len(json.loads(f.read_text(encoding="utf-8"))["edges"]) for f in saved) > 0
    for f in saved:
        assert f.read_bytes() == (tmp_path / "1" / f.name).read_bytes()


def test_no_valid_pair_scores_no_table_pair(monkeypatch):
    # values overlap, but equal sets have no key side and the key {1, 3} is
    # contained nowhere, so no table pair is a candidate
    corpus = TableCorpus(
        tables=(
            make_table("t1", ["a"], [["1"], ["1"], ["2"]]),
            make_table("t2", ["b"], [["2"], ["1"], ["2"]]),
            make_table("t3", ["c"], [["1"], ["3"]]),
        ),
        provenance={},
    )
    calls = []
    scorer = compatibility.table_compatibility

    def counting(*args, **kwargs):
        calls.append(args[:2])
        return scorer(*args, **kwargs)

    monkeypatch.setattr(compatibility, "table_compatibility", counting)
    assert len(build_cache(corpus, HashingEmbedder(dimension=16))) == 0
    assert calls == []
    # a contained key makes its table pair the one candidate
    extra = make_table("t4", ["d"], [["3"], ["2"], ["1"]])
    corpus = TableCorpus(tables=corpus.tables + (extra,), provenance={})
    assert len(build_cache(corpus, HashingEmbedder(dimension=16))) > 0
    assert sorted((a.id, b.id) for a, b in calls) == [("t1", "t4"), ("t2", "t4"), ("t3", "t4")]


# ---------------------------------------------------------------------------
# Gold-join evaluation
# ---------------------------------------------------------------------------


def fixed_cache():
    return CompatibilityCache(
        edges=[JoinEdge(0.6, "a", "k", "b", "fk")],
        backend_id="stub",
    )


def fixed_corpus():
    """The tables and columns that the evaluation tests' annotations name."""
    return TableCorpus(
        tables=(
            make_table("a", ["k"], [["1"]]),
            make_table("b", ["fk", "other"], [["1", "2"]]),
            make_table("c", ["x"], [["3"]]),
        ),
        provenance={},
    )


class TestEvaluateCache:
    def test_correct_pair_above_threshold(self):
        gold = [GoldJoin("a", "b", True, ("k", "fk"))]
        report = evaluate_cache(fixed_cache(), gold, fixed_corpus())
        assert report["joinability_accuracy"] == 1.0
        assert report["column_accuracy"] == 1.0
        assert report["avg_score_error"] == pytest.approx(0.4, abs=1e-12)
        assert report["pairs"] == 1.0
        assert report["joinable_pairs"] == 1.0

    def test_absent_pair_counts_as_zero_score(self):
        gold = [
            GoldJoin("a", "b", True, ("k", "fk")),
            GoldJoin("a", "c", False),
        ]
        report = evaluate_cache(fixed_cache(), gold, fixed_corpus())
        assert report["joinability_accuracy"] == 1.0
        assert report["avg_score_error"] == pytest.approx(0.2, abs=1e-12)

    def test_missing_joinable_pair_is_an_error(self):
        gold = [GoldJoin("a", "c", True)]
        report = evaluate_cache(fixed_cache(), gold, fixed_corpus())
        assert report["joinability_accuracy"] == 0.0
        assert report["avg_score_error"] == 1.0

    def test_score_below_threshold_counts_as_not_joinable(self):
        cache = CompatibilityCache(edges=[JoinEdge(0.3, "a", "k", "b", "fk")])
        report = evaluate_cache(cache, [GoldJoin("a", "b", True)], fixed_corpus())
        assert report["joinability_accuracy"] == 0.0
        # joinable means strictly above the threshold
        for score, accuracy in [(JOINABILITY_THRESHOLD, 0.0), (JOINABILITY_THRESHOLD + 0.01, 1.0)]:
            cache = CompatibilityCache(edges=[JoinEdge(score, "a", "k", "b", "fk")])
            report = evaluate_cache(cache, [GoldJoin("a", "b", True)], fixed_corpus())
            assert report["joinability_accuracy"] == accuracy

    def test_column_match_ignores_side_order(self):
        gold = [GoldJoin("b", "a", True, ("fk", "k"))]
        report = evaluate_cache(fixed_cache(), gold, fixed_corpus())
        assert report["column_accuracy"] == 1.0

    def test_wrong_columns_fail_column_accuracy(self):
        gold = [GoldJoin("a", "b", True, ("k", "other"))]
        report = evaluate_cache(fixed_cache(), gold, fixed_corpus())
        assert report["joinability_accuracy"] == 1.0
        assert report["column_accuracy"] == 0.0

    def test_column_accuracy_scope(self):
        # only gold-joinable pairs with annotated columns enter the denominator
        gold = [
            GoldJoin("a", "b", True, ("k", "fk")),
            GoldJoin("a", "c", False, ("k", "x")),
            GoldJoin("b", "c", True),
        ]
        report = evaluate_cache(fixed_cache(), gold, fixed_corpus())
        assert report["column_accuracy"] == 1.0
        assert report["joinable_pairs"] == 2.0

    def test_empty_gold_rejected(self):
        with pytest.raises(ValueError):
            evaluate_cache(fixed_cache(), [], fixed_corpus())

    def test_corpus_validation(self):
        corpus = TableCorpus(
            tables=(
                make_table("a", ["k"], [["1"]]),
                make_table("b", ["fk"], [["1"]]),
            ),
            provenance={},
        )
        good = [GoldJoin("a", "b", True, ("k", "fk"))]
        evaluate_cache(fixed_cache(), good, corpus=corpus)
        with pytest.raises(CorpusError):
            evaluate_cache(fixed_cache(), [GoldJoin("a", "zzz", True)], corpus=corpus)
        with pytest.raises(CorpusError):
            evaluate_cache(
                fixed_cache(), [GoldJoin("a", "b", True, ("nope", "fk"))], corpus=corpus
            )

    def test_gold_joins_from_records(self):
        records = [
            {"table_a": "a", "table_b": "b", "joinable": True, "gold_columns": ["k", "fk"]},
            {"table_a": "a", "table_b": "c", "joinable": False},
        ]
        gold = gold_joins_from_records(records)
        assert gold[0] == GoldJoin("a", "b", True, ("k", "fk"))
        assert gold[1] == GoldJoin("a", "c", False, None)
        with pytest.raises(CorpusError):
            gold_joins_from_records([{"table_a": "a"}])
        with pytest.raises(CorpusError):
            gold_joins_from_records(
                [{"table_a": "a", "table_b": "b", "joinable": True, "gold_columns": ["k"]}]
            )

    @pytest.mark.parametrize(
        "change, complaint",
        [
            ({"joinable": "false"}, "field 'joinable' holds str"),
            ({"joinable": 1}, "field 'joinable' holds int"),
            ({"joinable": None}, "field 'joinable' holds NoneType"),
            ({"table_a": 5}, "field 'table_a' holds int"),
            ({"table_b": None}, "field 'table_b' holds NoneType"),
            ({"gold_columns": ["k", 2]}, "gold_columns must list two column names"),
            ({"gold_columns": "k,fk"}, "gold_columns must list two column names"),
        ],
        ids=["joinable-string", "joinable-int", "joinable-null", "numeric-table",
             "null-table", "numeric-column", "columns-string"],
    )
    def test_gold_join_fields_must_have_their_types(self, change, complaint):
        good = {"table_a": "a", "table_b": "b", "joinable": True}
        with pytest.raises(CorpusError, match=f"gold.json record 1: {complaint}"):
            gold_joins_from_records([good, {**good, **change}], "gold.json")

    @pytest.mark.parametrize(
        "third, complaint",
        [
            (("c", "c"), "table 'c' is named twice"),
            (("a", "b"), "pair 'a', 'b' repeats record 0"),
            (("b", "a"), "pair 'b', 'a' repeats record 0"),
        ],
        ids=["self-pair", "same-order", "reversed"],
    )
    def test_gold_join_self_pair_or_repeated_pair_is_refused(self, third, complaint):
        records = [
            {"table_a": "a", "table_b": "b", "joinable": True},
            {"table_a": "a", "table_b": "c", "joinable": False},
            {"table_a": third[0], "table_b": third[1], "joinable": False},
        ]
        with pytest.raises(CorpusError, match=f"gold.json record 2: {complaint}"):
            gold_joins_from_records(records, "gold.json")

    def test_gold_join_without_joinable_is_refused(self):
        with pytest.raises(CorpusError, match="record 0: missing field 'joinable'"):
            gold_joins_from_records([{"table_a": "a", "table_b": "b"}])

    def test_gold_joins_must_be_a_list(self):
        with pytest.raises(CorpusError, match="gold joins gold.json must be a list of records"):
            gold_joins_from_records({"table_a": "a", "table_b": "b", "joinable": True}, "gold.json")

    def test_default_threshold_constant(self):
        assert JOINABILITY_THRESHOLD == 0.5
