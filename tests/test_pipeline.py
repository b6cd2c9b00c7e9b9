"""Tests for the online retrieve-select-restore pipeline."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tablescout import (
    CompatibilityCache,
    DenseIndex,
    HashingEmbedder,
    OnlinePipeline,
    ScriptedGenerator,
    SelectionParseError,
    TokenLedger,
    record_line,
    result_record,
)
from tablescout.compatibility import JoinEdge
from tablescout.pipeline import (
    DEFAULT_RESTORE_THRESHOLD,
    DEFAULT_TOP_K,
    SELECTION_MAX_TOKENS,
    SelectionResult,
    _extract_json_object,
    adjust,
    build_selection_prompt,
    parse_selection,
    retrieve_topk,
)
from tablescout.prompts import SELECTION_PROMPT_TEMPLATE
from tablescout.services import GenerationResponse, HttpGenerationClient, cosine

from synth import MappedEmbedder


def selection_json(groups, selected=0):
    """A well-formed selection response; groups is a list of index lists."""
    return json.dumps(
        {
            "group_formation": {
                "groups_formed": [
                    {"group_index": gi, "table_indices": list(indices), "rationale": "r"}
                    for gi, indices in enumerate(groups)
                ]
            },
            "group_selection": {"selected_group_index": selected, "rationale": "r"},
        }
    )


def edges_cache(*edges):
    return CompatibilityCache(edges=edges, backend_id="stub")


# ---------------------------------------------------------------------------
# Dense retrieval
# ---------------------------------------------------------------------------


class TestRetrieveTopk:
    def test_identity_query_ranks_first(self):
        emb = HashingEmbedder(dimension=64)
        texts = {"t1": "city museums", "t2": "train schedules", "t3": "river levels"}
        index = DenseIndex.build(texts, emb)
        out = retrieve_topk("train schedules", index, emb, k=2)
        assert out[0] == "t2"
        assert len(out) == 2

    def test_k_clamped_to_corpus_size(self):
        emb = HashingEmbedder(dimension=32)
        index = DenseIndex.build({"a": "one", "b": "two"}, emb)
        out = retrieve_topk("one", index, emb, k=10)
        assert len(out) == 2

    def test_matches_exhaustive_scan(self):
        emb = HashingEmbedder(dimension=48)
        rng = np.random.default_rng(5)
        words = ["river", "city", "train", "tax", "school", "crop", "fish", "star"]
        texts = {
            f"t{i:02d}": " ".join(rng.choice(words, size=6)) for i in range(20)
        }
        index = DenseIndex.build(texts, emb)
        for qi in range(5):
            query = " ".join(rng.choice(words, size=4))
            got = retrieve_topk(query, index, emb, k=7)
            qv = emb.embed(query)
            want = sorted(
                ((tid, cosine(emb.embed(text), qv)) for tid, text in texts.items()),
                key=lambda pair: (-pair[1], pair[0]),
            )[:7]
            assert got == tuple(tid for tid, _ in want)

    def test_invalid_k_rejected(self):
        emb = HashingEmbedder(dimension=16)
        index = DenseIndex.build({"a": "x"}, emb)
        with pytest.raises(ValueError):
            retrieve_topk("x", index, emb, k=0)

    def test_empty_index_embeds_nothing(self):
        class Refusing:
            backend_id = "refusing"

            def embed(self, text):
                raise AssertionError("an empty index needs no query vector")

        assert retrieve_topk("anything", DenseIndex.build({}, Refusing()), Refusing()) == ()


# ---------------------------------------------------------------------------
# Prompt construction
# ---------------------------------------------------------------------------


class TestBuildSelectionPrompt:
    def test_sections_rendered_exactly(self):
        topk = ("B", "A")
        texts = {"A": "Table name: A\nTable content: | x |", "B": "Table name: B\nTable content: | y |"}
        cache = edges_cache(JoinEdge(0.9, "A", "a_col", "B", "b_col"))
        request = build_selection_prompt("list all rivers", topk, cache, texts)
        expected_tables = (
            "\nTable 0:\nTable name: B\nTable content: | y |"
            "\n\nTable 1:\nTable name: A\nTable content: | x |"
        )
        expected_pairs = (
            '\nPair (Table 0 <-> Table 1): overall_compatibility: 0.90; '
            'best_join_columns: "b_col <-> a_col"'
        )
        expected = SELECTION_PROMPT_TEMPLATE.format(
            query="list all rivers",
            tables_content=expected_tables,
            compatibility_analysis=expected_pairs,
        )
        assert request.prompt == expected
        assert request.max_tokens == SELECTION_MAX_TOKENS

    def test_table_indices_follow_rank_order(self):
        # B outranks A, so B must be Table 0 and the join columns must be
        # oriented with B's side first
        topk = ("B", "A")
        texts = {"A": "ta", "B": "tb"}
        cache = edges_cache(JoinEdge(0.9, "A", "a_col", "B", "b_col"))
        prompt = build_selection_prompt("q", topk, cache, texts).prompt
        line = (
            'Pair (Table 0 <-> Table 1): overall_compatibility: 0.90; '
            'best_join_columns: "b_col <-> a_col"'
        )
        assert line in prompt
        assert line not in SELECTION_PROMPT_TEMPLATE
        assert "Table 0:\ntb" in prompt
        assert "Table 1:\nta" in prompt

    def test_only_positive_pairs_listed(self):
        topk = ("a", "b", "c")
        texts = {"a": "A", "b": "B", "c": "C"}
        cache = edges_cache(JoinEdge(0.42, "a", "x", "b", "y"))
        prompt = build_selection_prompt("q", topk, cache, texts).prompt
        baseline = SELECTION_PROMPT_TEMPLATE.count("Pair (Table")
        assert prompt.count("Pair (Table") == baseline + 1
        assert "Pair (Table 0 <-> Table 1)" in prompt.replace(
            SELECTION_PROMPT_TEMPLATE.split("{compatibility_analysis}")[0], ""
        )

    def test_no_cached_pairs_renders_empty_section(self):
        topk = ("a", "b")
        texts = {"a": "A", "b": "B"}
        prompt = build_selection_prompt("q", topk, edges_cache(), texts).prompt
        baseline = SELECTION_PROMPT_TEMPLATE.count("Pair (Table")
        assert prompt.count("Pair (Table") == baseline
        assert "Table 0:\nA" in prompt

    def test_query_substituted(self):
        topk = ("a",)
        prompt = build_selection_prompt(
            "how many bridges were built", topk, edges_cache(), {"a": "A"}
        ).prompt
        assert "how many bridges were built" in prompt
        assert "{query}" not in prompt
        assert "{tables_content}" not in prompt

    def test_missing_text_raises(self):
        topk = ("a", "b")
        with pytest.raises(KeyError):
            build_selection_prompt("q", topk, edges_cache(), {"a": "A"})

    def test_max_tokens_override(self):
        topk = ("a",)
        request = build_selection_prompt("q", topk, edges_cache(), {"a": "A"})
        assert request.max_tokens == SELECTION_MAX_TOKENS


# ---------------------------------------------------------------------------
# Response parsing
# ---------------------------------------------------------------------------


class TestParseSelection:
    def setup_method(self):
        self.topk = ("a", "b", "c")

    def test_nested_shape(self):
        assert parse_selection(selection_json([[0, 1]]), self.topk) == (0, 1)

    def test_flat_shape(self):
        text = json.dumps(
            {
                "groups_formed": [{"group_index": 0, "table_indices": [2]}],
                "selected_group_index": 0,
            }
        )
        assert parse_selection(text, self.topk) == (2,)

    def test_second_group_selected(self):
        assert parse_selection(selection_json([[0], [1, 2]], selected=1), self.topk) == (1, 2)

    def test_code_fence_and_prose_tolerated(self):
        text = "Here is my analysis:\n```json\n" + selection_json([[0]]) + "\n```\nDone."
        assert parse_selection(text, self.topk) == (0,)

    def test_braces_in_prose_before_json(self):
        text = "best {candidate} overall:\n" + selection_json([[1]])
        assert parse_selection(text, self.topk) == (1,)

    def test_first_json_object_wins(self):
        text = json.dumps({"unrelated": 1}) + "\n" + selection_json([[0]])
        with pytest.raises(SelectionParseError):
            parse_selection(text, self.topk)

    @given(
        st.dictionaries(
            st.text(),
            st.recursive(
                st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
                lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
                max_leaves=20,
            ),
        ),
        st.sampled_from([None, 0, 2]),
        st.text(" \t\n\r"),
        st.text(" \t\n\r"),
    )
    def test_any_json_object_document_parses_to_itself(self, obj, indent, before, after):
        # every reply that is exactly one JSON object reads as that object
        assert _extract_json_object(before + json.dumps(obj, indent=indent) + after) == obj

    def test_garbage_rejected(self):
        with pytest.raises(SelectionParseError):
            parse_selection("no structure here at all", self.topk)

    def test_empty_groups_rejected(self):
        text = json.dumps(
            {"group_formation": {"groups_formed": []}, "group_selection": {"selected_group_index": 0}}
        )
        with pytest.raises(SelectionParseError):
            parse_selection(text, self.topk)

    def test_unknown_selected_group_rejected(self):
        with pytest.raises(SelectionParseError):
            parse_selection(selection_json([[0]], selected=5), self.topk)

    def test_duplicate_group_index_rejected(self):
        text = json.dumps(
            {
                "groups_formed": [
                    {"group_index": 0, "table_indices": [0]},
                    {"group_index": 0, "table_indices": [1]},
                ],
                "selected_group_index": 0,
            }
        )
        with pytest.raises(SelectionParseError):
            parse_selection(text, self.topk)

    def test_out_of_range_table_index_rejected(self):
        with pytest.raises(SelectionParseError):
            parse_selection(selection_json([[0, 3]]), self.topk)

    def test_negative_and_boolean_indices_rejected(self):
        with pytest.raises(SelectionParseError):
            parse_selection(selection_json([[-1]]), self.topk)
        text = json.dumps(
            {"groups_formed": [{"group_index": 0, "table_indices": [True]}], "selected_group_index": 0}
        )
        with pytest.raises(SelectionParseError):
            parse_selection(text, self.topk)

    def test_duplicate_table_indices_deduped_in_order(self):
        assert parse_selection(selection_json([[2, 0, 2, 1]]), self.topk) == (2, 0, 1)

    def test_empty_selection_rejected(self):
        with pytest.raises(SelectionParseError, match="picks no tables"):
            parse_selection(selection_json([[]]), self.topk)
        # only the selected group must pick tables
        assert parse_selection(selection_json([[], [1]], selected=1), self.topk) == (1,)

    def test_missing_selected_group_index_rejected(self):
        text = json.dumps({"groups_formed": [{"group_index": 0, "table_indices": [0]}]})
        with pytest.raises(SelectionParseError, match="selected_group_index must be an integer, got None"):
            parse_selection(text, self.topk)

    @pytest.mark.parametrize("group", [[0, 1], 0, None], ids=["list", "number", "null"])
    def test_group_that_is_not_an_object_rejected(self, group):
        text = json.dumps({"groups_formed": [group], "selected_group_index": 0})
        with pytest.raises(SelectionParseError, match="group entry is not an object"):
            parse_selection(text, self.topk)

    def test_missing_table_indices_rejected(self):
        text = json.dumps(
            {"groups_formed": [{"group_index": 0}], "selected_group_index": 0}
        )
        with pytest.raises(SelectionParseError):
            parse_selection(text, self.topk)


# ---------------------------------------------------------------------------
# Restoration
# ---------------------------------------------------------------------------


class TestAdjust:
    def test_adds_best_neighbor_above_threshold(self):
        topk = ("A", "B", "C")
        cache = edges_cache(
            JoinEdge(0.5, "A", "x", "B", "y"),
            JoinEdge(0.2, "A", "x", "C", "y"),
        )
        assert adjust(("A",), topk, cache, tau=0.3) == ("B",)

    def test_below_threshold_adds_nothing(self):
        topk = ("A", "B")
        cache = edges_cache(JoinEdge(0.2, "A", "x", "B", "y"))
        assert adjust(("A",), topk, cache, tau=0.3) == ()

    def test_shared_argmax_added_once(self):
        topk = ("A", "B", "C")
        cache = edges_cache(
            JoinEdge(0.9, "A", "x", "C", "y"),
            JoinEdge(0.8, "B", "x", "C", "y"),
        )
        assert adjust(("A", "B"), topk, cache, tau=0.3) == ("C",)

    def test_threshold_above_one_restores_nothing(self):
        topk = ("A", "B")
        cache = edges_cache(JoinEdge(1.0, "A", "x", "B", "y"))
        assert adjust(("A",), topk, cache, tau=1.01) == ()

    def test_zero_threshold_adds_only_argmaxes(self):
        # tau 0 still adds one neighbor per selected table, not every neighbor
        topk = ("A", "B", "C", "D")
        cache = edges_cache(
            JoinEdge(0.6, "A", "x", "B", "y"),
            JoinEdge(0.1, "A", "x", "C", "y"),
            JoinEdge(0.05, "A", "x", "D", "y"),
        )
        assert adjust(("A",), topk, cache, tau=0.0) == ("B",)

    def test_no_positive_neighbor_adds_nothing_at_zero_threshold(self):
        topk = ("A", "B")
        assert adjust(("A",), topk, edges_cache(), tau=0.0) == ()

    def test_tie_prefers_higher_retrieval_score(self):
        # C outranks B in the top-k
        topk = ("A", "C", "B")
        cache = edges_cache(
            JoinEdge(0.5, "A", "x", "B", "y"),
            JoinEdge(0.5, "A", "x", "C", "y"),
        )
        assert adjust(("A",), topk, cache, tau=0.3) == ("C",)

    def test_tie_then_prefers_lower_id(self):
        # B and C tie on retrieval score too, so retrieval ranks B first
        emb = MappedEmbedder({"a": [1.0, 0.0], "bc": [0.6, 0.8]})
        index = DenseIndex.build({"A": "a", "C": "bc", "B": "bc"}, emb)
        topk = retrieve_topk("a", index, emb, k=3)
        assert topk == ("A", "B", "C")
        cache = edges_cache(
            JoinEdge(0.5, "A", "x", "B", "y"),
            JoinEdge(0.5, "A", "x", "C", "y"),
        )
        assert adjust(("A",), topk, cache, tau=0.3) == ("B",)

    def test_single_pass_only(self):
        # B's own strong neighbor C must not be pulled in by restored B
        topk = ("A", "B", "C")
        cache = edges_cache(
            JoinEdge(0.5, "A", "x", "B", "y"),
            JoinEdge(0.95, "B", "x", "C", "y"),
        )
        assert adjust(("A",), topk, cache, tau=0.3) == ("B",)

    def test_selected_tables_never_restored(self):
        topk = ("A", "B")
        cache = edges_cache(JoinEdge(0.9, "A", "x", "B", "y"))
        assert adjust(("A", "B"), topk, cache, tau=0.3) == ()

    def test_result_in_rank_order(self):
        topk = ("A", "B", "C", "D")
        cache = edges_cache(
            JoinEdge(0.9, "A", "x", "D", "y"),
            JoinEdge(0.8, "B", "x", "C", "y"),
        )
        assert adjust(("A", "B"), topk, cache, tau=0.3) == ("C", "D")

    def test_non_candidate_selection_rejected(self):
        topk = ("A",)
        with pytest.raises(ValueError):
            adjust(("Z",), topk, edges_cache())

    def test_default_threshold_constant(self):
        assert DEFAULT_RESTORE_THRESHOLD == 0.3
        assert DEFAULT_TOP_K == 10


# ---------------------------------------------------------------------------
# The full pipeline
# ---------------------------------------------------------------------------


def pipeline_fixture(responses, **kwargs):
    texts = {
        "t0": "alpha records",
        "t1": "alpha and beta",
        "t2": "beta mostly",
        "t3": "gamma facts",
        "t4": "delta facts",
    }
    emb = MappedEmbedder(
        {
            "alpha records": [1.0, 0.0, 0.0],
            "alpha and beta": [0.8, 0.6, 0.0],
            "beta mostly": [0.6, 0.8, 0.0],
            "gamma facts": [0.0, 1.0, 0.0],
            "delta facts": [0.0, 0.0, 1.0],
            "the alpha question": [1.0, 0.0, 0.0],
        }
    )
    index = DenseIndex.build(texts, emb)
    cache = edges_cache(
        JoinEdge(0.96, "t0", "a", "t2", "b"),
        JoinEdge(0.4, "t1", "a", "t3", "b"),
        JoinEdge(0.2, "t2", "a", "t4", "b"),
    )
    generator = ScriptedGenerator(responses=responses) if responses is not None else None
    kwargs.setdefault("ledger", TokenLedger())
    pipeline = OnlinePipeline(
        index, cache, emb, generator, texts=texts if generator else None, **kwargs
    )
    return pipeline, generator


class TestOnlinePipeline:
    def test_hand_traced_run(self):
        ledger = TokenLedger()
        pipeline, generator = pipeline_fixture([selection_json([[0, 1]])], ledger=ledger)
        result = pipeline.run_query("the alpha question")
        # ranks: t0 (1.0), t1 (0.8), t2 (0.6), then t3/t4 tied at 0 by id
        assert result.topk == ("t0", "t1", "t2", "t3", "t4")
        assert result.selected == ("t0", "t1")
        # t0's best unchosen neighbor is t2 (0.96), t1's is t3 (0.4)
        assert result.restored == ("t2", "t3")
        assert result.final == ("t0", "t1", "t2", "t3")
        assert not result.fallback_used
        assert result.input_tokens == len(generator.calls[0].split())
        assert result.output_tokens == len(selection_json([[0, 1]]).split())
        assert ledger.stage_totals() == {
            "selection": (result.input_tokens, result.output_tokens)
        }

    def test_malformed_response_falls_back_to_topk(self):
        ledger = TokenLedger()
        pipeline, _ = pipeline_fixture(["I cannot answer in JSON, sorry."], ledger=ledger)
        result = pipeline.run_query("the alpha question")
        assert result.fallback_used
        assert result.selected == ()
        assert result.restored == ()
        assert result.final == ("t0", "t1", "t2", "t3", "t4")
        assert result.output_tokens == len("I cannot answer in JSON, sorry.".split())
        assert ledger.output_tokens == result.output_tokens  # usage still accounted

    @pytest.mark.parametrize(
        "reply",
        [
            json.dumps({"groups_formed": [{"group_index": 0, "table_indices": [0]}]}),
            json.dumps({"groups_formed": [[0, 1]], "selected_group_index": 0}),
        ],
        ids=["no-selected-group-index", "group-not-an-object"],
    )
    def test_reply_of_the_wrong_shape_falls_back_to_topk(self, reply):
        pipeline, _ = pipeline_fixture([reply])
        result = pipeline.run_query("the alpha question")
        assert result.fallback_used
        assert (result.selected, result.restored) == ((), ())
        assert result.final == ("t0", "t1", "t2", "t3", "t4")

    def test_generation_failure_falls_back_without_tokens(self):
        ledger = TokenLedger()
        pipeline, _ = pipeline_fixture([ScriptedGenerator.FAIL], ledger=ledger)
        result = pipeline.run_query("the alpha question")
        assert result.fallback_used
        assert result.final == ("t0", "t1", "t2", "t3", "t4")
        assert (result.input_tokens, result.output_tokens) == (0, 0)
        assert ledger.stage_totals() == {}

    def test_malformed_http_reply_falls_back(self):
        # a negative token count is refused by the client, so it never
        # reaches the ledger, which would raise on it
        def transport(url, payload, headers, timeout):
            return 200, {"text": selection_json([[0]]), "input_tokens": -5, "output_tokens": 1}

        ledger = TokenLedger()
        pipeline, _ = pipeline_fixture([], ledger=ledger)
        pipeline.generator = HttpGenerationClient("http://svc", "g", transport=transport, sleep=lambda s: None)
        result = pipeline.run_query("the alpha question")
        assert result.fallback_used
        assert result.final == ("t0", "t1", "t2", "t3", "t4")
        assert (result.input_tokens, result.output_tokens) == (0, 0)
        assert ledger.stage_totals() == {}

    def test_empty_index_returns_empty_result(self):
        emb = HashingEmbedder(dimension=16)
        index = DenseIndex.build({}, emb)
        generator = ScriptedGenerator(responses=[])
        pipeline = OnlinePipeline(index, edges_cache(), emb, generator, texts={}, ledger=TokenLedger())
        result = pipeline.run_query("anything")
        assert result.final == ()
        assert not result.fallback_used
        assert generator.calls == []

    def test_fallback_only_mode_skips_generation(self):
        pipeline, _ = pipeline_fixture(None, k=3)
        result = pipeline.run_query("the alpha question")
        assert result.fallback_used
        assert result.final == ("t0", "t1", "t2")

    def test_k_limits_candidates(self):
        pipeline, _ = pipeline_fixture([selection_json([[0]])], k=2)
        result = pipeline.run_query("the alpha question")
        assert result.topk == ("t0", "t1")
        assert result.final == ("t0",)  # t0's neighbor t2 is not a candidate

    def test_empty_selection_falls_back(self):
        ledger = TokenLedger()
        pipeline, _ = pipeline_fixture([selection_json([[]])], ledger=ledger)
        result = pipeline.run_query("the alpha question")
        assert result.fallback_used
        assert result.selected == ()
        assert result.restored == ()
        assert result.final == ("t0", "t1", "t2", "t3", "t4")
        assert result.input_tokens > 0  # the reply was received and metered
        assert ledger.stage_totals()["selection"] == (result.input_tokens, result.output_tokens)

    def test_final_and_fallback_follow_from_the_pick(self):
        assert [f.name for f in dataclasses.fields(SelectionResult)] == [
            "topk",
            "selected",
            "restored",
            "input_tokens",
            "output_tokens",
        ]
        topk = ("t0", "t1", "t2", "t3")
        picked = SelectionResult(topk, ("t2",), ("t0",), 5, 1)
        assert picked.final == ("t0", "t2")
        assert not picked.fallback_used
        no_pick = SelectionResult(topk, (), (), 0, 0)
        assert no_pick.final == topk
        assert no_pick.fallback_used
        empty = SelectionResult((), (), (), 0, 0)
        assert empty.final == ()
        assert not empty.fallback_used
        with pytest.raises(AttributeError):
            picked.final = topk

    def test_pick_is_held_in_rank_order(self):
        pipeline, _ = pipeline_fixture([selection_json([[4, 0, 4]])], tau=1.01)
        result = pipeline.run_query("the alpha question")
        assert result.selected == result.final == ("t0", "t4")

    def test_missing_text_propagates(self):
        pipeline, generator = pipeline_fixture([selection_json([[0]])])
        pipeline.texts = {}
        with pytest.raises(KeyError):
            pipeline.run_query("the alpha question")
        assert generator.calls == []

    def test_ledger_refusal_propagates(self):
        class NegativeTokens:
            def generate(self, request):
                return GenerationResponse(text=selection_json([[0]]), input_tokens=-1, output_tokens=1)

        ledger = TokenLedger()
        pipeline, _ = pipeline_fixture([], ledger=ledger)
        pipeline.generator = NegativeTokens()
        with pytest.raises(ValueError, match="nonnegative"):
            pipeline.run_query("the alpha question")

    def test_repeated_runs_are_identical(self):
        records = []
        for _ in range(3):
            pipeline, _ = pipeline_fixture([selection_json([[0, 2]])])
            result = pipeline.run_query("the alpha question")
            records.append(record_line(result_record("q1", result)))
        assert len(set(records)) == 1

    def test_constructor_validation(self):
        emb = HashingEmbedder(dimension=16)
        index = DenseIndex.build({"a": "x"}, emb)
        generator = ScriptedGenerator(responses=[])
        with pytest.raises(ValueError):
            OnlinePipeline(index, edges_cache(), emb, generator, texts={"a": "x"}, k=0, ledger=TokenLedger())
        with pytest.raises(ValueError):
            OnlinePipeline(index, edges_cache(), emb, generator, texts=None, ledger=TokenLedger())

    def test_texts_lacking_an_indexed_table_are_refused_with_a_generator(self):
        emb = HashingEmbedder(dimension=16)
        index = DenseIndex.build({"a": "alpha", "b": "beta"}, emb)
        generator = ScriptedGenerator(responses=[selection_json([[0]])])
        with pytest.raises(ValueError, match="'b'"):
            OnlinePipeline(index, edges_cache(), emb, generator, texts={"a": "alpha"}, ledger=TokenLedger())
        # the dense baseline shows no text, so it needs none
        pipeline = OnlinePipeline(index, edges_cache(), emb, None, texts={}, ledger=TokenLedger())
        assert sorted(pipeline.run_query("beta").final) == ["a", "b"]

    def test_additivity_and_subset_invariants(self):
        rng = np.random.default_rng(17)
        emb = HashingEmbedder(dimension=32)
        words = ["ore", "tide", "lamp", "vine", "moss", "dust", "peak", "fern"]
        empty_picks = 0
        for _ in range(40):
            n = int(rng.integers(3, 10))
            texts = {
                f"t{i:02d}": " ".join(rng.choice(words, size=5)) for i in range(n)
            }
            index = DenseIndex.build(texts, emb)
            edges = []
            ids = sorted(texts)
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.4:
                        edges.append(
                            JoinEdge(float(rng.uniform(0.05, 1.0)), ids[i], "x", ids[j], "y")
                        )
            cache = edges_cache(*edges)
            k = int(rng.integers(1, n + 1))
            pick = sorted(rng.choice(k, size=int(rng.integers(0, k + 1)), replace=False))
            tau = float(rng.choice([0.0, 0.3, 0.7, 1.01]))
            generator = ScriptedGenerator(responses=[selection_json([list(map(int, pick))])])
            pipeline = OnlinePipeline(
                index, cache, emb, generator, texts=texts, k=k, tau=tau, ledger=TokenLedger()
            )
            result = pipeline.run_query(" ".join(rng.choice(words, size=3)))
            topk = result.topk
            assert len(topk) == k
            if not pick:
                # an empty pick is malformed: the whole top-k, nothing restored
                empty_picks += 1
                assert result.fallback_used
                assert result.final == topk
                assert result.selected == result.restored == ()
                continue
            assert not result.fallback_used
            assert set(result.selected) <= set(topk)
            assert set(result.final) == set(result.selected) | set(result.restored)
            assert not set(result.restored) & set(result.selected)
            assert result.selected == tuple(t for t in topk if t in set(result.selected))
            assert result.final == tuple(t for t in topk if t in set(result.final))
            if tau > 1.0:
                assert result.restored == ()
            expected = oracle_adjust(result.selected, topk, cache, tau)
            assert set(result.restored) == expected
        assert empty_picks > 0  # the draw exercised the fallback case


def oracle_adjust(selected, topk, cache, tau):
    # rank order is descending retrieval score, ties by ascending id, so
    # ranking by position is the score-then-id tie-break
    chosen = set(selected)
    unchosen = [t for t in topk if t not in chosen]
    restored = set()
    for s in selected:
        scored = [
            (cache.score(s, u), topk.index(u), u)
            for u in unchosen
            if cache.score(s, u) > 0.0
        ]
        if not scored:
            continue
        best = min(scored, key=lambda item: (-item[0], item[1]))
        if best[0] >= tau:
            restored.add(best[2])
    return restored


# ---------------------------------------------------------------------------
# Result records
# ---------------------------------------------------------------------------


class TestResultRecords:
    def test_record_shape_and_order(self):
        pipeline, _ = pipeline_fixture([selection_json([[0, 1]])])
        result = pipeline.run_query("the alpha question")
        record = result_record("q7", result)
        assert list(record) == [
            "query_id",
            "topk",
            "selected",
            "restored",
            "final",
            "fallback_used",
            "input_tokens",
            "output_tokens",
        ]
        assert record["query_id"] == "q7"
        assert record["topk"] == ["t0", "t1", "t2", "t3", "t4"]
        assert record["selected"] == ["t0", "t1"]
        assert record["restored"] == ["t2", "t3"]
        assert record["final"] == ["t0", "t1", "t2", "t3"]
        assert record["fallback_used"] is False

    def test_fallback_record(self):
        pipeline, _ = pipeline_fixture(["garbage"])
        record = result_record("q", pipeline.run_query("the alpha question"))
        assert record["fallback_used"] is True
        assert record["selected"] == []
        assert record["restored"] == []
        assert record["final"] == record["topk"]

    def test_record_line_round_trips(self):
        pipeline, _ = pipeline_fixture([selection_json([[0]])])
        record = result_record("q", pipeline.run_query("the alpha question"))
        line = record_line(record)
        assert "\n" not in line
        assert json.loads(line) == record
