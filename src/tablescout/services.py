"""Clients for the two model services (embedding, generation) plus offline stubs.

The HTTP clients speak a small JSON protocol (documented in the README) with
bounded retries. The stubs are deterministic and network-free: the hashing
embedder maps character n-grams to a fixed-dimension unit vector (each
instance hashes a distinct trigram once and keeps its bucket; the vectors
do not depend on what it embedded before), and the scripted generator
replays canned responses with exact token accounting.

An embedder serves two kinds of traffic. The offline build embeds a whole
step's texts at once through ``embed_many``: every enriched table text for
the dense index, and the headers of the columns that value blocking pairs
for the compatibility cache. The online
path embeds one query text at a time through ``embed``. The hashing
embedder answers a batch with a numpy kernel and a single text with a plain
loop, bit for bit alike. A cold build of a 602-table pool sends two batches,
602 table texts and then 650 headers; the kernel embeds them in 16 and
3.7 ms, against 41 and 10 ms one by one (fastest of 15 runs, 2 vCPUs). A
query takes 23 us through the loop, against 82 us through the kernel. A
backend's width is that of the vectors it returns.
"""

from __future__ import annotations

import hashlib
import json
import logging
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Protocol, Sequence

import numpy as np

from .artifacts import read_npz, read_npz_keys, segments, write_npz
from .errors import BackendError, CorpusError

logger = logging.getLogger(__name__)

DEFAULT_STUB_DIMENSION = 256
_NGRAM = 3
_API_KEY_ENV = "TABLESCOUT_API_KEY"
_TIMEOUT_SECONDS = 60.0
_RETRIES = 3
_BACKOFF_SECONDS = 1.0
# every generation call is greedy, so a rerun sends the same request
_TEMPERATURE = 0.0
#: The most bytes of one chunk's sum matrix in ``HashingEmbedder.embed_many``,
#: which holds d float64 sums per text: 64 texts at d = 256. It keeps a wide
#: stub from allocating n x d sums for a whole build step at once.
_CHUNK_BYTES = 128 * 1024


# ---------------------------------------------------------------------------
# Vector helpers
# ---------------------------------------------------------------------------


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity; 0.0 when either vector has zero norm."""
    return cosine_of_norms(a, b, float(np.linalg.norm(a)), float(np.linalg.norm(b)))


def cosine_of_norms(a: np.ndarray, b: np.ndarray, na: float, nb: float) -> float:
    """:func:`cosine` given the norms of ``a`` and ``b``, as it computes them."""
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


class Embedder(Protocol):
    backend_id: str

    def embed(self, text: str) -> np.ndarray: ...

    def embed_many(self, texts: Sequence[str]) -> np.ndarray:
        """One row per text, as ``embed`` gives it: an ``(n, d)`` float64 array."""
        ...


class Generator(Protocol):
    def generate(self, request: "GenerationRequest") -> "GenerationResponse": ...


# ---------------------------------------------------------------------------
# Deterministic stub embedder
# ---------------------------------------------------------------------------


class HashingEmbedder:
    """Deterministic embedding from hashed character trigrams, L2-normalized.

    Texts sharing n-grams land in shared hash buckets, so lexically similar
    strings score higher cosine than disjoint ones. Pure function of the
    input. Each instance memoizes the ``(bucket, sign)`` of every distinct
    trigram it has hashed, so a trigram costs one blake2b per instance; the
    vectors are those of hashing every occurrence.

    :meth:`embed` walks one text's trigrams in Python: a query is one short
    text, where that loop took 23 us and the array kernel 82 us, so
    :meth:`embed_many` answers a one-text batch through it too. It serves
    the build's batches with the kernel, chunk by chunk
    (:data:`_CHUNK_BYTES`): each chunk's trigrams are packed into
    integers, each distinct one is looked up once, and ``np.bincount`` sums
    the occurrences' signs per row and bucket; a cold build's 602 table
    texts took 16 ms that way and 41 ms through the loop, and its 650
    headers 3.7 and 10 ms. Every bucket sum and its square is a small
    integer, so both paths give the same floats in any summation order.
    """

    def __init__(self, dimension: int = DEFAULT_STUB_DIMENSION):
        if dimension <= 0:
            raise ValueError("dimension must be positive")
        self.dimension = dimension
        self.backend_id = f"stub-ngram{_NGRAM}-d{dimension}"
        self._buckets: dict[str, tuple[int, float]] = {}

    def _hash(self, gram: str) -> tuple[int, float]:
        """The ``(bucket, sign)`` of a trigram new to the memo, which keeps it."""
        h = int.from_bytes(hashlib.blake2b(gram.encode("utf-8"), digest_size=8).digest(), "big")
        found = self._buckets[gram] = ((h >> 1) % self.dimension, 1.0 if h & 1 else -1.0)
        return found

    def embed(self, text: str) -> np.ndarray:
        if text == "":
            raise ValueError("cannot embed an empty string")
        padded = f" {text.casefold()} "
        n = _NGRAM
        buckets = self._buckets
        # every sum is of +-1.0, so it is exact in any order: the same floats
        # as adding into the array one occurrence at a time
        sums = [0.0] * self.dimension
        for i in range(max(1, len(padded) - n + 1)):
            gram = padded[i : i + n]
            found = buckets.get(gram)
            if found is None:
                found = self._hash(gram)
            sums[found[0]] += found[1]
        vec = np.array(sums, dtype=np.float64)
        norm = np.linalg.norm(vec)
        if norm == 0.0:
            vec[0] = 1.0
            return vec
        return vec / norm

    def embed_many(self, texts: Sequence[str]) -> np.ndarray:
        """Embed ``texts`` into one ``(n, d)`` array, row ``i`` equal to ``embed(texts[i])``."""
        if len(texts) == 1:
            return self.embed(texts[0])[None]
        if "" in texts:
            raise ValueError("cannot embed an empty string")
        out = np.empty((len(texts), self.dimension), dtype=np.float64)
        rows = max(1, _CHUNK_BYTES // (self.dimension * 8))
        for start in range(0, len(texts), rows):
            out[start : start + rows] = self._embed_chunk(texts[start : start + rows])
        return out

    def _embed_chunk(self, texts: Sequence[str]) -> np.ndarray:
        d = self.dimension
        padded = [f" {text.casefold()} " for text in texts]
        # a non-empty text pads to 3 code points or more: len - 2 trigrams each
        lengths = np.fromiter(map(len, padded), dtype=np.int64, count=len(padded))
        codes = np.frombuffer("".join(padded).encode("utf-32-le"), dtype="<u4").astype(np.int64)
        # a code point is below 2**21, so three pack into one int64 without overlap
        packed = (codes[:-2] << 42) | (codes[1:-1] << 21) | codes[2:]
        ends = np.cumsum(lengths)
        inside = np.ones(len(codes), dtype=bool)
        inside[ends - 2] = inside[ends - 1] = False  # trigrams that run into the next text
        grams, occurrence = np.unique(packed[inside[:-2]], return_inverse=True)
        # the distinct trigrams spelled out again, as the memo keys them
        joined = (
            np.stack([grams >> 42, (grams >> 21) & 0x1FFFFF, grams & 0x1FFFFF], axis=1)
            .astype("<u4")
            .tobytes()
            .decode("utf-32-le")
        )
        spelled = [joined[i : i + 3] for i in range(0, len(joined), 3)]
        buckets = self._buckets
        found = np.array([buckets.get(gram) or self._hash(gram) for gram in spelled], dtype=np.float64)
        # each row's bucket sums of its occurrences' signs: sums of +-1.0, exact in any order
        bucket = found[:, 0].astype(np.int64)[occurrence]
        row = np.repeat(np.arange(len(texts)), lengths - 2)
        vec = np.bincount(row * d + bucket, weights=found[occurrence, 1], minlength=len(texts) * d)
        vec = vec.reshape(len(texts), d)
        norm = np.sqrt(np.einsum("ij,ij->i", vec, vec))
        zero = norm == 0.0
        vec[zero, 0] = norm[zero] = 1.0  # a zero-norm row becomes the first axis
        return vec / norm[:, None]


# ---------------------------------------------------------------------------
# Persistent embedding cache
# ---------------------------------------------------------------------------

#: The most segments the embedding cache spans on disk: a save that would
#: leave more rewrites segment 0 with every entry the index lacks instead.
MAX_CACHE_SEGMENTS = 8
#: The dense index's file name. The embedding cache at ``path`` reads the
#: index at ``path.with_name(INDEX_FILE)`` as a read-only source.
INDEX_FILE = "index.npz"


def text_key(text: str) -> str:
    """The key of an embedded text in the embedding cache and the index: the
    first 32 hex digits (128 bits) of the SHA-256 of its UTF-8 bytes, far
    past any collision a cache of texts can meet, at half the bytes of the
    whole digest."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:32]


class CachingEmbedder:
    """Wrap an embedder with an in-memory cache that can persist to ``.npz``.

    Cache entries are keyed by :func:`text_key` and are only valid for the
    backend that produced them; loading a cache written under a different
    backend id is refused. ``backend_calls`` counts actual backend
    invocations, which makes resumability measurable in tests.

    Each vector is stored once. The dense index beside ``path``
    (:data:`INDEX_FILE`) records the key of each row's text, and the cache
    loads it as a read-only source of entries; it never writes it. The rest
    sits in a log of segments (:func:`segments`): segment 0 at ``path``,
    then ``<name>.1``, ``<name>.2``, ... beside it. Each holds sorted keys,
    each a 32-digit hex :func:`text_key` stored as ASCII bytes, and one float64
    vector row per key, whatever its suffix. :meth:`save` reads the keys of
    the index on disk then, and writes, as one new segment, only the entries
    that neither it nor a segment holds: so a cold ``enrich``, whose every
    vector is in the index it just saved, writes no segment, and a table the
    index drops keeps its vector in a segment.

    The loader reads every segment in number order, then the index, under
    one rule: a key that an earlier file holds too must hold the same vector
    bit for bit, and a file's vectors must be as wide as the earlier files';
    a refusal names the later file. So a key is held twice only as equal
    copies: a table dropped and then added back, in a segment and the index,
    or the segments a killed compaction took in but did not delete.

    When a save would leave more than :data:`MAX_CACHE_SEGMENTS` segments,
    it rewrites segment 0 with every entry the index does not hold, then
    deletes the other segments; a kill between the two leaves copies that
    the next compaction deletes. Every file is written through
    :func:`write_npz`, so a kill at any point leaves each segment whole,
    plus at most one ``*.tmp`` file, which is not a segment. A kill between
    an index save and the cache's save loses only the vectors of the tables
    that index dropped.
    """

    def __init__(self, backend: Embedder, path: str | Path | None = None):
        self._backend = backend
        self._path = Path(path) if path is not None else None
        self._entries: dict[str, np.ndarray] = {}
        # keys the segments hold; a save writes the entries that neither
        # they nor the index on disk hold
        self._held: set[str] = set()
        # the segments on disk, by number
        self._live: dict[int, Path] = {}
        # the width of the vectors held, set by the first vectors loaded or
        # embedded; None while the cache holds no vector
        self._width: int | None = None
        self.backend_calls = 0
        if self._path is not None:
            self._load(self._path)

    def _load(self, path: Path) -> None:
        backend_id = self._backend.backend_id
        self._live = segments(path)
        for segment in self._live.values():
            _, keys, vectors = read_npz(segment, "embedding cache", backend_id, "keys")
            self._join(segment, "embedding cache", keys, vectors)
        self._held = set(self._entries)
        index = path.with_name(INDEX_FILE)
        if index.exists():
            _, _, keys, vectors = read_npz(index, "index", backend_id, "ids", "keys")
            self._join(index, "index", keys, vectors)

    def _join(self, path: Path, what: str, keys: list[str], vectors: np.ndarray) -> None:
        """Add one file's entries to those of the files loaded before it,
        which may hold a key it holds only with the same vector."""
        if keys:  # an empty file is (0, 0) and has no width
            if self._width is None:
                self._width = vectors.shape[1]
            elif vectors.shape[1] != self._width:
                raise CorpusError(
                    f"malformed {what} {path}: vectors of width {vectors.shape[1]}, "
                    f"earlier files {self._width}"
                )
        incoming = dict(zip(keys, vectors))
        for key in sorted(self._entries.keys() & incoming.keys()):
            if self._entries[key].tobytes() != incoming[key].tobytes():
                raise CorpusError(f"malformed {what} {path}: key {key} holds another vector than an earlier file")
        self._entries.update(incoming)

    @property
    def backend_id(self) -> str:
        return self._backend.backend_id

    def save(self) -> None:
        """Write the entries that neither a segment nor the index on disk
        holds as one new segment, numbered one past the highest.

        With none, nothing is written. Past :data:`MAX_CACHE_SEGMENTS`
        segments, segment 0 is rewritten with every entry the index does not
        hold instead, and the other segments are deleted.
        """
        if self._path is None:
            return
        index = self._path.with_name(INDEX_FILE)
        indexed = set(read_npz_keys(index, "index", self.backend_id, "keys")) if index.exists() else set()
        new = self._entries.keys() - self._held - indexed
        if not new:
            return
        if len(self._live) < MAX_CACHE_SEGMENTS:
            self._write(max(self._live, default=-1) + 1, new)
            self._held |= new
        else:
            kept = self._entries.keys() - indexed
            self._write(0, kept)
            for number in sorted(self._live)[1:]:
                self._live.pop(number).unlink(missing_ok=True)
            self._held = kept

    def _write(self, number: int, keys: set[str]) -> None:
        """Write ``keys``, sorted, as segment ``number``."""
        segment = self._path.with_name(f"{self._path.name}.{number}") if number else self._path
        ordered = sorted(keys)
        vectors = np.asarray([self._entries[k] for k in ordered], dtype=np.float64)
        write_npz(segment, self.backend_id, {"keys": np.asarray(ordered, dtype="S")}, vectors)
        self._live[number] = segment

    def embed(self, text: str) -> np.ndarray:
        return self.embed_many([text])[0]

    def embed_many(self, texts: Sequence[str]) -> np.ndarray:
        """Embed ``texts`` in one backend batch holding each distinct miss once.

        The reply is checked whole before any of it is cached, so a bad reply
        leaves the cache as it was. Its width must be that of the vectors the
        cache holds; the first vectors of an empty cache set it.
        """
        return self._embed_keyed(texts)[1]

    def _embed_keyed(self, texts: Sequence[str]) -> tuple[list[str], np.ndarray]:
        """(the :func:`text_key` of each text, :meth:`embed_many`'s vectors)."""
        keys = [text_key(text) for text in texts]
        misses: dict[str, str] = {}
        for key, text in zip(keys, texts):
            if key not in self._entries:
                misses.setdefault(key, text)
        if misses:
            vectors = np.asarray(self._backend.embed_many(list(misses.values())), dtype=np.float64)
            width = vectors.shape[-1] if self._width is None else self._width
            if vectors.shape != (len(misses), width):
                raise BackendError(
                    f"backend returned vectors of shape {vectors.shape} for {len(misses)} texts: "
                    f"dimension {vectors.shape[-1]}, expected {width}"
                )
            self._width = width
            self._entries.update(zip(misses, vectors))
            self.backend_calls += len(misses)
            if len(misses) == len(keys):  # every text new and distinct: the reply, in order
                return keys, vectors
        rows = [self._entries[key] for key in keys]
        return keys, np.array(rows, dtype=np.float64).reshape(len(keys), self._width or 0)


def embed_keyed(embedder: Embedder, texts: Sequence[str]) -> tuple[list[str], np.ndarray]:
    """(the :func:`text_key` of each of ``texts``, ``embedder.embed_many(texts)``),
    each key computed once: a :class:`CachingEmbedder` hands back the keys
    its lookup computed, and any other embedder's are computed here."""
    if isinstance(embedder, CachingEmbedder):
        return embedder._embed_keyed(texts)
    return [text_key(text) for text in texts], embedder.embed_many(texts)


# ---------------------------------------------------------------------------
# Generation contracts and stubs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GenerationRequest:
    """One generation call; every call is made at temperature 0."""

    prompt: str
    max_tokens: int = 1024


@dataclass(frozen=True)
class GenerationResponse:
    text: str
    input_tokens: int
    output_tokens: int


def _count_tokens(text: str) -> int:
    return len(text.split())


class ScriptedGenerator:
    """Replay canned responses in call order; the offline test backend.

    ``responses`` may contain plain strings or the :data:`FAIL` sentinel,
    which makes that call raise :class:`BackendError`. Alternatively pass
    ``reply``, a callable mapping the prompt to a response string. Prompts are
    recorded in ``calls``.
    """

    FAIL = object()

    def __init__(
        self,
        responses: list[object] | None = None,
        reply: Callable[[str], str] | None = None,
    ):
        if (responses is None) == (reply is None):
            raise ValueError("provide exactly one of responses or reply")
        self._responses = list(responses) if responses is not None else None
        self._reply = reply
        self._cursor = 0
        self.calls: list[str] = []

    def generate(self, request: GenerationRequest) -> GenerationResponse:
        if request.prompt == "":
            raise ValueError("cannot generate from an empty prompt")
        self.calls.append(request.prompt)
        if self._reply is not None:
            text = self._reply(request.prompt)
        else:
            if self._cursor >= len(self._responses):
                raise BackendError("scripted generator exhausted")
            slot = self._responses[self._cursor]
            self._cursor += 1
            if slot is ScriptedGenerator.FAIL:
                raise BackendError("scripted generator failure")
            text = str(slot)
        return GenerationResponse(
            text=text,
            input_tokens=_count_tokens(request.prompt),
            output_tokens=_count_tokens(text),
        )


# ---------------------------------------------------------------------------
# Token ledger
# ---------------------------------------------------------------------------


class TokenLedger:
    """Per-stage token accounting."""

    def __init__(self) -> None:
        self._stages: dict[str, list[int]] = {}

    def record(self, stage: str, input_tokens: int, output_tokens: int) -> None:
        if input_tokens < 0 or output_tokens < 0:
            raise ValueError("token counts must be nonnegative")
        bucket = self._stages.setdefault(stage, [0, 0])
        bucket[0] += input_tokens
        bucket[1] += output_tokens

    @property
    def input_tokens(self) -> int:
        return sum(b[0] for b in self._stages.values())

    @property
    def output_tokens(self) -> int:
        return sum(b[1] for b in self._stages.values())

    def stage_totals(self) -> dict[str, tuple[int, int]]:
        return {stage: (b[0], b[1]) for stage, b in self._stages.items()}


# ---------------------------------------------------------------------------
# HTTP clients
# ---------------------------------------------------------------------------

#: transport(url, payload, headers, timeout) -> (status_code, parsed_json)
Transport = Callable[[str, dict, dict, float], tuple[int, object]]


def _requests_transport(url: str, payload: dict, headers: dict, timeout: float) -> tuple[int, object]:
    import requests

    try:
        resp = requests.post(url, json=payload, headers=headers, timeout=timeout)
    except requests.RequestException as exc:
        raise ConnectionError(str(exc)) from exc
    try:
        body = resp.json()
    except ValueError:
        body = {}
    return resp.status_code, body


class _HttpClient:
    def __init__(
        self,
        base_url: str,
        model: str,
        *,
        sleep: Callable[[float], None] = time.sleep,
        transport: Transport | None = None,
    ):
        self.base_url = base_url.rstrip("/")
        self.model = model
        self._sleep = sleep
        self._transport = transport or _requests_transport

    def _headers(self) -> dict:
        import os

        headers = {"Content-Type": "application/json"}
        key = os.environ.get(_API_KEY_ENV)
        if key:
            headers["Authorization"] = f"Bearer {key}"
        return headers

    def _post(self, path: str, payload: dict) -> dict:
        url = f"{self.base_url}{path}"
        # prompts are logged only as a hash: they carry table contents
        prompt_hash = hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode("utf-8")
        ).hexdigest()[:12]
        logger.debug("POST %s payload-hash=%s", url, prompt_hash)
        last_error: str = "no attempts made"
        for attempt in range(_RETRIES):
            if attempt > 0:
                self._sleep(_BACKOFF_SECONDS * (2 ** (attempt - 1)))
            try:
                status, body = self._transport(url, payload, self._headers(), _TIMEOUT_SECONDS)
            except (ConnectionError, TimeoutError) as exc:
                last_error = f"transport failure: {exc}"
                continue
            if 200 <= status < 300:
                logger.debug("reply %s status=%d", url, status)
                if not isinstance(body, dict):
                    raise BackendError(f"{url} replied with a JSON {type(body).__name__}, not an object")
                return body
            if status >= 500 or status == 429:
                last_error = f"server status {status}"
                continue
            raise BackendError(f"{url} returned status {status}")
        raise BackendError(f"{url} failed after {_RETRIES} attempts: {last_error}")


class HttpEmbeddingClient(_HttpClient):
    """Text-embedding service client.

    POSTs ``{"model", "input"}`` to ``{base_url}/v1/embeddings`` and expects
    ``{"embedding": [...]}``. The embedding cache and the dense index check
    the width of the vectors.
    """

    def __init__(self, base_url: str, model: str, **kwargs):
        super().__init__(base_url, model, **kwargs)
        self.backend_id = f"http:{model}"

    def embed(self, text: str) -> np.ndarray:
        if text == "":
            raise ValueError("cannot embed an empty string")
        body = self._post("/v1/embeddings", {"model": self.model, "input": text})
        values = body.get("embedding")
        if not isinstance(values, list) or not values:
            raise BackendError("malformed embedding reply: missing 'embedding'")
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
            raise BackendError("malformed embedding reply: 'embedding' is not a flat list of numbers")
        vec = np.asarray(values, dtype=np.float64)
        if not np.all(np.isfinite(vec)):
            raise BackendError("malformed embedding reply: 'embedding' holds NaN or infinity")
        return vec

    def embed_many(self, texts: Sequence[str]) -> np.ndarray:
        """One request per text, as :meth:`embed` sends it; the protocol has no batch form."""
        vectors = [self.embed(text) for text in texts]
        widths = sorted(set(map(len, vectors)))
        if len(widths) > 1:
            raise BackendError(f"embedding replies of widths {widths} in one batch")
        return np.array(vectors, dtype=np.float64).reshape(len(texts), widths[0] if widths else 0)


class HttpGenerationClient(_HttpClient):
    """Text-generation service client.

    POSTs ``{"model", "prompt", "max_tokens", "temperature"}`` to
    ``{base_url}/v1/generate``, the temperature always
    :data:`_TEMPERATURE`, and expects ``{"text", "input_tokens",
    "output_tokens"}``. Failures after the retries surface as
    :class:`BackendError`, never as silently empty text.
    """

    def generate(self, request: GenerationRequest) -> GenerationResponse:
        if request.prompt == "":
            raise ValueError("cannot generate from an empty prompt")
        body = self._post(
            "/v1/generate",
            {
                "model": self.model,
                "prompt": request.prompt,
                "max_tokens": request.max_tokens,
                "temperature": _TEMPERATURE,
            },
        )
        text = body.get("text")
        if not isinstance(text, str):
            raise BackendError(f"malformed generation reply: 'text' is {text!r}, not a string")
        return GenerationResponse(
            text=text,
            input_tokens=_token_count(body, "input_tokens"),
            output_tokens=_token_count(body, "output_tokens"),
        )


def _token_count(body: dict, field: str) -> int:
    value = body.get(field)
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise BackendError(f"malformed generation reply: {field!r} is {value!r}, not a count")
    return value
