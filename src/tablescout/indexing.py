"""Offline enrichment and the dense retrieval index.

Enrichment asks the generation backend for a one-paragraph purpose per table,
then composes the text that gets embedded: table name, purpose (omitted when
the generator declined), and a Markdown sample of the contents. The dense
index ranks those embeddings by cosine exactly: one matrix-vector product
scores every row, and the rows near the k-th score are scored again with the
scalar ``cosine``, so ranks and scores equal a row-by-row scan. It is
persisted to ``.npz`` together with the backend id, which refuses only an
index that another embedder built: the index does not record the corpus it
was built from, so after a re-ingest it answers from the old tables until
``enrich`` runs again.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterable, Mapping

import numpy as np

from .artifacts import (
    append_journal,
    journal_of,
    open_journal,
    read_artifact,
    read_journal,
    read_npz,
    require,
    write_artifact,
    write_npz,
)
from .corpus import DEFAULT_SAMPLE_ROWS, DEFAULT_SEED, Table, markdown_grid, sample_rows, serialize_markdown
from .errors import BackendError
from .services import Embedder, GenerationRequest, Generator, TokenLedger, cosine_of_norms, embed_keyed

PURPOSE_PROMPT = (
    "Given the following table, describe the purpose of this table in "
    "layman's terms in one paragraph. If you do not think the text is "
    "semantically meaningful, output None.\n{table}"
)
PURPOSE_MAX_TOKENS = 256
PURPOSE_STAGE = "purpose"

# Width of the band around the k-th matrix-product score whose rows
# DenseIndex.search scores again with the scalar ``cosine``. With unit
# roundoff u = 2**-53, a d-term dot product summed in any order is off by at
# most gamma_d * sum|x_i y_i| <= d*u * |x||y| to first order (Higham,
# "Accuracy and Stability of Numerical Algorithms", 2nd ed., §3.1, with
# Cauchy-Schwarz); each norm, the square root of such a sum, is off by at
# most (d/2 + 1)*u relative, and the product of the norms and the quotient
# round twice more. A cosine, at most 1 in size, is thus within (2d + 5)*u of
# the exact value however it is summed, so the product score and the scalar
# ``cosine`` of a row differ by at most D = (4d + 10)*u. The k-th product
# score is then at most D above the k-th scalar score, and every row the
# scalar scan ranks in the top k has a product score at most D below that, so
# within 2D = (8d + 20)*u of the k-th product score: below EPS for every
# dimension d up to 10**6.
EPS = 1e-9
# The bound leaves out underflow and overflow. When both norms lie in this
# range, no sum of squares or products overflows, and products that underflow
# move a cosine by less than d * 1e-123. So rows outside it (zero rows among
# them) are always scored again, and a query outside it has every row scored
# again.
SAFE_NORMS = (1e-100, 1e100)


def generate_purpose(
    table: Table,
    generator: Generator,
    grid: str,
    *,
    max_tokens: int = PURPOSE_MAX_TOKENS,
    ledger: TokenLedger,
) -> str:
    """Ask the generator for the table's purpose; '' when it answers None.

    ``grid`` is ``markdown_grid(table, sample)``; the prompt embeds the
    table's :func:`serialize_markdown` snapshot around it, so the same grid
    sends identical bytes. The call's tokens go to ``ledger`` under the
    purpose stage.
    """
    prompt = PURPOSE_PROMPT.replace("{table}", serialize_markdown(table, grid))
    response = generator.generate(GenerationRequest(prompt=prompt, max_tokens=max_tokens))
    ledger.record(PURPOSE_STAGE, response.input_tokens, response.output_tokens)
    purpose = response.text.strip()
    return "" if purpose == "None" else purpose


def enriched_text(table: Table, purpose: str, grid: str) -> str:
    """Compose the text that represents a table in the dense index.

    Three labeled sections: name, purpose (omitted when empty), content. The
    content is ``grid``, which is ``markdown_grid(table, sample)``: the
    sampled pipe table without a repeated name line.
    """
    lines = [f"Table name: {table.name}"]
    if purpose:
        lines.append(f"Table purpose: {purpose}")
    lines.append(f"Table content: {grid}")
    return "\n".join(lines)


@dataclass(frozen=True)
class EnrichedTable:
    table_id: str
    purpose: str
    text: str


class EnrichmentStore:
    """Persisted table-id -> enriched-record map; makes enrichment resumable.

    Every store has a file. It reads the file, if there is one, then replays
    the journal beside it (``enriched.json.journal``), a record a line.
    :meth:`put` appends each new or changed record to that journal through
    one handle, opened at the first record, as one write that is flushed
    before ``put`` returns. :meth:`save` closes the handle and compacts the
    journal: it writes the whole file, then deletes the journal. A killed
    enrichment thus loses at most the record it was appending.
    """

    def __init__(self, path: str | Path):
        self._path = Path(path)
        self._journal = journal_of(self._path)
        self._entries: dict[str, EnrichedTable] = {}
        self._handle: BinaryIO | None = None
        #: whether the journal holds records :meth:`save` has not compacted
        self.pending = False
        what = "enrichment store"
        if self._path.exists():
            data = read_artifact(self._path, what)
            for table_id, record in require(data, "entries", self._path, what, dict).items():
                self._load(table_id, record, self._path, what)
        if self._journal.exists():
            self.pending = True
            what = "enrichment journal"
            for lineno, record in read_journal(self._journal, what):
                where = f"{self._journal}:{lineno}"
                self._load(require(record, "table_id", where, what, str), record, where, what)

    def _load(self, table_id: str, record: object, where: str | Path, what: str) -> None:
        self._entries[table_id] = EnrichedTable(
            table_id=table_id,
            purpose=require(record, "purpose", where, what, str),
            text=require(record, "text", where, what, str),
        )

    def save(self) -> None:
        """Close the journal's handle, write the whole store file, then delete
        the journal it held."""
        self._close()
        entries = {e.table_id: {"purpose": e.purpose, "text": e.text} for e in self._entries.values()}
        write_artifact(self._path, {"entries": entries})
        self._journal.unlink(missing_ok=True)
        self.pending = False

    def _close(self) -> None:
        """Close the journal handle, if open; the next record opens it again."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __contains__(self, table_id: str) -> bool:
        return table_id in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, table_id: str) -> EnrichedTable:
        return self._entries[table_id]

    def put(self, record: EnrichedTable) -> None:
        """Hold ``record``; a new or changed one is appended to the journal."""
        if self._entries.get(record.table_id) == record:
            return
        if self._handle is None:
            self._handle = open_journal(self._journal)
        line = {"purpose": record.purpose, "table_id": record.table_id, "text": record.text}
        append_journal(self._handle, line)
        self.pending = True
        self._entries[record.table_id] = record

    def texts(self) -> dict[str, str]:
        return {e.table_id: e.text for e in self._entries.values()}


def enrich_tables(
    tables: Iterable[Table],
    generator: Generator,
    *,
    store: EnrichmentStore,
    seed: int = DEFAULT_SEED,
    n_rows: int = DEFAULT_SAMPLE_ROWS,
    max_tokens: int = PURPOSE_MAX_TOKENS,
    ledger: TokenLedger,
) -> None:
    """Give every table a purpose and an indexed text in ``store``.

    Only ids new to the store cost a generator call, and each call's tokens
    go to ``ledger``. A stored id keeps its purpose, but its text is
    composed again from the table holding the id now. Tables go in sorted-id
    order so generator call order (and any scripted backend) is
    reproducible. Each new or changed record goes to
    the store's journal as it is made; the store is saved once, at the end,
    when its journal holds anything. The journal's handle is closed however
    the loop ends, a generator error included.
    """
    try:
        for table in sorted(tables, key=lambda t: t.id):
            # rendered once, for the prompt and the text
            grid = markdown_grid(table, sample_rows(table, n=n_rows, seed=seed))
            if table.id in store:
                purpose = store.get(table.id).purpose
            else:
                purpose = generate_purpose(table, generator, grid, max_tokens=max_tokens, ledger=ledger)
            store.put(EnrichedTable(table.id, purpose, enriched_text(table, purpose, grid)))
        if store.pending:
            store.save()
    finally:
        store._close()


class DenseIndex:
    """Exact cosine-similarity index over per-table embedding vectors.

    Rows are stored in sorted table-id order, with one float64 norm per row
    kept beside them. Queries return the top ``k`` pairs ordered by
    descending score with ties broken by ascending id; ranks and scores are
    those of the scalar ``cosine`` applied row by row, so results are stable
    across runs and across save/load round trips.

    ``keys`` holds each row's :func:`text_key`, which :meth:`save` writes
    beside the ids, so the embedding cache can serve those vectors from the
    index instead of storing them again. An index made without them
    searches, but cannot be saved.
    """

    def __init__(self, ids: list[str], vectors: np.ndarray, backend_id: str, keys: list[str] | None = None):
        if len(ids) != vectors.shape[0] or (keys is not None and len(keys) != len(ids)):
            raise ValueError("one vector (and text key) per table id required")
        if len(set(ids)) != len(ids):
            raise ValueError("table ids must be unique")
        order = sorted(range(len(ids)), key=lambda i: ids[i])
        self.ids: tuple[str, ...] = tuple(str(ids[i]) for i in order)
        self.keys: tuple[str, ...] | None = None if keys is None else tuple(keys[i] for i in order)
        self.vectors: np.ndarray = np.asarray(vectors, dtype=np.float64)[order]
        self.backend_id = backend_id
        # each row's norm as ``cosine`` computes it, so rescoring reuses it
        self._norms = np.array([float(np.linalg.norm(row)) for row in self.vectors], dtype=np.float64)
        self._safe = (self._norms >= SAFE_NORMS[0]) & (self._norms <= SAFE_NORMS[1])

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def dimension(self) -> int:
        return int(self.vectors.shape[1])

    @classmethod
    def build(cls, texts: Mapping[str, str], embedder: Embedder) -> "DenseIndex":
        """Embed every table text, as one batch in sorted-id order, into an
        index that records each row's :func:`text_key`."""
        if not texts:
            return cls(ids=[], vectors=np.zeros((0, 0)), backend_id=embedder.backend_id, keys=[])
        ids = sorted(texts)
        ordered = [texts[i] for i in ids]
        keys, vectors = embed_keyed(embedder, ordered)
        return cls(ids=ids, vectors=vectors, backend_id=embedder.backend_id, keys=keys)

    def search(self, query_vector: np.ndarray, k: int) -> list[tuple[str, float]]:
        """Top-k (table_id, cosine) pairs; k is clipped to the index size. A
        query vector of another width than the index's, which another
        embedder gives, raises :class:`BackendError`.

        One matrix-vector product scores every row. The rows within
        ``EPS`` of the k-th of those scores, and any row the product
        cannot bound, are scored again with the scalar ``cosine`` and ranked
        by that score, ties by ascending table id. The band covers the
        rounding difference between the two, so the result equals a scalar
        ``cosine`` scan over every row bit for bit.
        """
        if k <= 0:
            raise ValueError("k must be positive")
        if len(self.ids) == 0:
            return []
        q = np.asarray(query_vector, dtype=np.float64)
        if q.shape != (self.dimension,):
            raise BackendError(
                f"the embedder returned a query vector of width {q.size}, "
                f"but the index holds vectors of width {self.dimension}"
            )
        n, k = len(self.ids), min(k, len(self.ids))
        q_norm = float(np.linalg.norm(q))
        safe = self._safe & (SAFE_NORMS[0] <= q_norm <= SAFE_NORMS[1])
        # rows the product cannot bound score -inf here and join the band below
        scores = np.divide(
            self.vectors @ q, self._norms * q_norm, out=np.full(n, -np.inf), where=safe
        )
        kth = np.partition(scores, n - k)[n - k]
        band = np.flatnonzero((scores >= kth - EPS) | ~safe)
        rescored = [(cosine_of_norms(self.vectors[i], q, self._norms[i], q_norm), int(i)) for i in band]
        rescored.sort(key=lambda pair: (-pair[0], pair[1]))  # row order is id order
        return [(self.ids[i], score) for score, i in rescored[:k]]

    def save(self, path: str | Path) -> None:
        """Write the ids, text keys (as ASCII bytes) and vectors to ``path``."""
        if self.keys is None:
            raise ValueError("an index made without text keys cannot be saved")
        keys = {"ids": np.asarray(self.ids), "keys": np.asarray(self.keys, dtype="S")}
        write_npz(path, self.backend_id, keys, self.vectors)

    @classmethod
    def load(cls, path: str | Path, expected_backend_id: str | None = None) -> "DenseIndex":
        meta, ids, keys, vectors = read_npz(path, "index", expected_backend_id, "ids", "keys")
        return cls(ids=ids, vectors=vectors, backend_id=meta.get("backend_id", ""), keys=keys)
