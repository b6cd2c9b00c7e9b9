"""Online retrieval: dense top-k, one selection call, join-aware restoration.

A query is answered in three stages. Dense retrieval ranks the k most similar
tables by cosine. A single generation call, prompted with the candidates and
their cached compatibility evidence, picks a joinable subset. Restoration
then adds back, for each chosen table, its most compatible unchosen candidate
when that score clears a threshold, so the final set can only gain recall
over the model's choice. Any generation or parsing failure, an empty pick
included, leaves the query with no pick, and its answer is the full top-k
rather than a guess. A result holds the top-k, the pick and the restored
tables; its final set and fallback flag are derived from those.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping

from .compatibility import CompatibilityCache
from .errors import BackendError, SelectionParseError
from .indexing import DenseIndex
from .prompts import SELECTION_PROMPT_TEMPLATE
from .services import Embedder, GenerationRequest, Generator, TokenLedger

DEFAULT_TOP_K = 10
DEFAULT_RESTORE_THRESHOLD = 0.3
SELECTION_MAX_TOKENS = 2048
SELECTION_STAGE = "selection"


@dataclass(frozen=True, eq=False)
class SelectionResult:
    """Everything the pipeline decided for one query.

    ``topk`` is the dense top-k in rank order. ``selected`` is the model's
    pick, empty when there was none, and ``restored`` is what restoration
    added; both are in rank order and subsets of ``topk``. ``final`` and
    ``fallback_used`` derive from them: with no pick, ``final`` is ``topk``,
    a fallback unless ``topk`` is empty; with one, it is the pick plus the
    restored tables, in rank order.
    """

    topk: tuple[str, ...]
    selected: tuple[str, ...]
    restored: tuple[str, ...]
    input_tokens: int
    output_tokens: int

    @property
    def final(self) -> tuple[str, ...]:
        if not self.selected:
            return self.topk
        answer = {*self.selected, *self.restored}
        return tuple(tid for tid in self.topk if tid in answer)

    @property
    def fallback_used(self) -> bool:
        return not self.selected and bool(self.topk)


def retrieve_topk(
    query: str,
    index: DenseIndex,
    embedder: Embedder,
    k: int = DEFAULT_TOP_K,
) -> tuple[str, ...]:
    """Embed the query and return the ids of the k nearest tables (clamped
    to the index), by descending cosine, ties by ascending table id.

    An empty index gives ``()`` without embedding the query.
    """
    if len(index) == 0:
        return ()
    return tuple(tid for tid, _ in index.search(embedder.embed(query), k))


# ---------------------------------------------------------------------------
# Selection prompt and response parsing
# ---------------------------------------------------------------------------


def build_selection_prompt(
    query: str,
    topk: tuple[str, ...],
    cache: CompatibilityCache,
    texts: Mapping[str, str],
) -> GenerationRequest:
    """Instantiate the selection template for one query.

    Candidates appear as ``Table 0`` .. ``Table k-1`` in rank order with
    their enriched text; the compatibility section carries one line per
    candidate pair the cache holds (each with a positive score), using those
    same indices, its score and join columns read from one cache lookup.
    """
    blocks = [f"Table {i}:\n{texts[tid]}" for i, tid in enumerate(topk)]
    tables_content = "\n" + "\n\n".join(blocks) if blocks else ""

    lines = []
    for i in range(len(topk)):
        for j in range(i + 1, len(topk)):
            edge = cache.edge(topk[i], topk[j])
            if edge is None:
                continue
            col_i, col_j = edge.oriented(topk[i])
            lines.append(
                f"Pair (Table {i} <-> Table {j}): "
                f"overall_compatibility: {edge.score:.2f}; "
                f'best_join_columns: "{col_i} <-> {col_j}"'
            )
    compatibility_analysis = "\n" + "\n".join(lines) if lines else ""

    prompt = SELECTION_PROMPT_TEMPLATE.format(
        query=query,
        tables_content=tables_content,
        compatibility_analysis=compatibility_analysis,
    )
    return GenerationRequest(prompt=prompt, max_tokens=SELECTION_MAX_TOKENS)


def _extract_json_object(text: str) -> dict:
    decoder = json.JSONDecoder()
    pos = text.find("{")
    while pos != -1:
        try:
            obj, _ = decoder.raw_decode(text, pos)
        except json.JSONDecodeError:
            obj = None
        if isinstance(obj, dict):
            return obj
        pos = text.find("{", pos + 1)
    raise SelectionParseError("no JSON object found in response")


def _as_index(value: object, what: str, upper: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SelectionParseError(f"{what} must be an integer, got {value!r}")
    if value < 0 or (upper is not None and value >= upper):
        raise SelectionParseError(f"{what} {value} is out of range")
    return value


def parse_selection(response_text: str, topk: tuple[str, ...]) -> tuple[int, ...]:
    """The positions in ``topk`` of the tables in the selected group, in the
    order the response lists them, repeats dropped.

    The first JSON object in the text is used, so code fences and surrounding
    prose are tolerated. Every group is checked, not only the selected one,
    and any deviation from the expected shape raises
    :class:`SelectionParseError`; callers treat that as the fallback signal.
    A selected group with no tables is malformed too: it would answer the
    query from nothing. Rationale fields are ignored.
    """
    obj = _extract_json_object(response_text)

    formation = obj.get("group_formation", obj)
    groups_raw = formation.get("groups_formed") if isinstance(formation, dict) else None
    if not isinstance(groups_raw, list) or not groups_raw:
        raise SelectionParseError("response lacks a non-empty groups_formed list")

    selection = obj.get("group_selection", obj)
    raw_index = selection.get("selected_group_index") if isinstance(selection, dict) else None
    selected_index = _as_index(raw_index, "selected_group_index")

    by_index: dict[int, tuple[int, ...]] = {}
    for group in groups_raw:
        if not isinstance(group, dict):
            raise SelectionParseError(f"group entry is not an object: {group!r}")
        gi = _as_index(group.get("group_index"), "group_index")
        if gi in by_index:
            raise SelectionParseError(f"duplicate group_index {gi}")
        raw_indices = group.get("table_indices")
        if not isinstance(raw_indices, list):
            raise SelectionParseError(f"group {gi} lacks a table_indices list")
        by_index[gi] = tuple(
            dict.fromkeys(_as_index(v, "table index", upper=len(topk)) for v in raw_indices)
        )

    if selected_index not in by_index:
        raise SelectionParseError(f"selected_group_index {selected_index} names no group")
    if not by_index[selected_index]:
        raise SelectionParseError(f"selected group {selected_index} picks no tables")
    return by_index[selected_index]


# ---------------------------------------------------------------------------
# Restoration
# ---------------------------------------------------------------------------


def adjust(
    selected: tuple[str, ...] | set[str],
    topk: tuple[str, ...],
    cache: CompatibilityCache,
    tau: float = DEFAULT_RESTORE_THRESHOLD,
) -> tuple[str, ...]:
    """Restore, per selected table, its best unchosen neighbor at score >= tau.

    One pass over the original selection: restored tables never trigger
    further lookups. Only neighbors with a positive cached score compete;
    argmax ties go to the neighbor ranked earlier in ``topk`` (higher
    retrieval score, then lower table id). The result is in ``topk`` order.
    """
    selected_set = set(selected)
    if not selected_set <= set(topk):
        raise ValueError("selected tables must all be in the top-k")
    unchosen = [tid for tid in topk if tid not in selected_set]
    restored: set[str] = set()
    for t in (tid for tid in topk if tid in selected_set):
        best_id: str | None = None
        best_cs = 0.0
        # the first strict maximum seen in rank order is the tie-break winner
        for u in unchosen:
            cs = cache.score(t, u)
            if cs > best_cs:
                best_cs, best_id = cs, u
        if best_id is not None and best_cs >= tau:
            restored.add(best_id)
    return tuple(tid for tid in topk if tid in restored)


# ---------------------------------------------------------------------------
# The pipeline
# ---------------------------------------------------------------------------


class OnlinePipeline:
    """Immutable index/cache plus backends.

    With no generator the pipeline is the dense-retrieval baseline: each
    query answers with its dense top-k, flagged as a fallback. With one,
    ``texts`` maps table id to the enriched text shown in selection prompts,
    and an indexed table it lacks raises ``ValueError``. ``ledger`` records
    the tokens of every selection call, one that falls back included.
    """

    def __init__(
        self,
        index: DenseIndex,
        cache: CompatibilityCache,
        embedder: Embedder,
        generator: Generator | None,
        texts: Mapping[str, str] | None = None,
        *,
        k: int = DEFAULT_TOP_K,
        tau: float = DEFAULT_RESTORE_THRESHOLD,
        ledger: TokenLedger,
    ):
        if k <= 0:
            raise ValueError("k must be positive")
        if generator is not None:
            unstored = next((tid for tid in index.ids if tid not in (texts or {})), None)
            if unstored is not None:
                raise ValueError(f"no enriched text for indexed table {unstored!r}")
        self.index = index
        self.cache = cache
        self.embedder = embedder
        self.generator = generator
        self.texts = texts
        self.k = k
        self.tau = tau
        self.ledger = ledger

    def run_query(self, query: str) -> SelectionResult:
        """Run all stages for one query.

        Embedding failures propagate (the query cannot be answered at all);
        a generation or parsing failure leaves the query with no pick, so it
        falls back to the whole top-k. An empty index gives an empty result
        that is not a fallback.
        """
        topk = retrieve_topk(query, self.index, self.embedder, self.k)
        response, selected = None, ()
        if topk and self.generator is not None:
            try:
                response = self.generator.generate(
                    build_selection_prompt(query, topk, self.cache, self.texts)
                )
                self.ledger.record(SELECTION_STAGE, response.input_tokens, response.output_tokens)
                selected = tuple(topk[i] for i in sorted(parse_selection(response.text, topk)))
            except (BackendError, SelectionParseError):
                pass
        return SelectionResult(
            topk=topk,
            selected=selected,
            restored=adjust(selected, topk, self.cache, self.tau) if selected else (),
            input_tokens=response.input_tokens if response is not None else 0,
            output_tokens=response.output_tokens if response is not None else 0,
        )


def result_record(query_id: str, result: SelectionResult) -> dict:
    """The per-query record written to results files (one JSON line each)."""
    return {
        "query_id": query_id,
        "topk": list(result.topk),
        "selected": list(result.selected),
        "restored": list(result.restored),
        "final": list(result.final),
        "fallback_used": result.fallback_used,
        "input_tokens": result.input_tokens,
        "output_tokens": result.output_tokens,
    }


def record_line(record: dict) -> str:
    return json.dumps(record, ensure_ascii=False)
