"""Embedding/generation backends, stubs, caching, and token accounting."""

from __future__ import annotations

import hashlib
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tablescout import (
    BackendError,
    CorpusError,
    HashingEmbedder,
    ScriptedGenerator,
    TokenLedger,
)
from tablescout.services import (
    DEFAULT_STUB_DIMENSION,
    CachingEmbedder,
    GenerationRequest,
    HttpEmbeddingClient,
    HttpGenerationClient,
    cosine,
    text_key,
)


# ---------------------------------------------------------------------------
# Stub embedder
# ---------------------------------------------------------------------------


def reference_embed(text: str, dimension: int) -> np.ndarray:
    """The stub embedding computed the plain way: blake2b per trigram occurrence."""
    padded = f" {text.casefold()} "
    vec = np.zeros(dimension, dtype=np.float64)
    for gram in [padded[i : i + 3] for i in range(max(1, len(padded) - 2))]:
        h = int.from_bytes(hashlib.blake2b(gram.encode("utf-8"), digest_size=8).digest(), "big")
        vec[(h >> 1) % dimension] += 1.0 if h & 1 else -1.0
    norm = np.linalg.norm(vec)
    if norm == 0.0:
        vec[0] = 1.0
        return vec
    return vec / norm


class TestHashingEmbedder:
    # the alphabet mixes in characters whose casefold is longer than they are
    @given(
        st.lists(
            st.text(alphabet=st.characters(exclude_categories=("Cs",)) | st.sampled_from("ßİﬁŉΐ "), min_size=1),
            min_size=1,
            max_size=8,
        ),
        # at 20000 the batch kernel holds one text per chunk
        st.sampled_from([1, 2, 16, 256, 257, 20000]),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_reference_warm_and_fresh(self, texts, dimension):
        expected = [reference_embed(text, dimension).tobytes() for text in texts]
        # the loop warms the memo for the kernel, and the kernel for the loop
        warm = HashingEmbedder(dimension)
        assert [warm.embed(text).tobytes() for text in texts] == expected
        assert [row.tobytes() for row in warm.embed_many(texts)] == expected
        fresh = HashingEmbedder(dimension)
        assert [row.tobytes() for row in fresh.embed_many(texts)] == expected
        assert [fresh.embed(text).tobytes() for text in texts] == expected
        assert [HashingEmbedder(dimension).embed(text).tobytes() for text in texts] == expected

    # one chunk of the batch kernel holds 64 texts at the default dimension
    @pytest.mark.parametrize("n", [1, 64, 65])
    def test_batch_equals_reference_across_chunks(self, n):
        texts = [f"t{i % 9}.column_{i} Table content: | {i} |" for i in range(n)]
        vectors = HashingEmbedder().embed_many(texts)
        assert vectors.shape == (n, DEFAULT_STUB_DIMENSION)
        for text, row in zip(texts, vectors):
            assert row.tobytes() == reference_embed(text, DEFAULT_STUB_DIMENSION).tobytes()

    def test_empty_batch_gives_no_rows(self):
        assert HashingEmbedder(dimension=8).embed_many([]).shape == (0, 8)

    @pytest.mark.parametrize("position", [0, 1, 63, 64])
    def test_empty_string_anywhere_in_a_batch_rejected(self, position):
        texts = [f"text {i}" for i in range(65)]
        texts[position] = ""
        with pytest.raises(ValueError, match="empty string"):
            HashingEmbedder().embed_many(texts)

    def test_zero_norm_falls_back_to_first_axis(self):
        # at dimension 1 the trigrams of " ab " take opposite signs and cancel
        assert reference_embed("ab", 1).tolist() == [1.0]
        assert HashingEmbedder(dimension=1).embed("ab").tolist() == [1.0]

    def test_vector_independent_of_earlier_texts(self):
        warm = HashingEmbedder()
        warm.embed("orders.customer_id")
        text = "customers.id orders"
        assert warm.embed(text).tobytes() == HashingEmbedder().embed(text).tobytes()

    @pytest.mark.parametrize(
        "text, digest",
        [
            ("Table name: orders", "9276cb3c729d0f78f620f92838b65f7e042d710166774fb4c711a3bbd0abebd6"),
            ("orders.customer_id", "b767bc9cb68d3b5c3aea2ebb73326b5104acfb43462daa910630428c6355a052"),
            ("ß İ ﬁ", "4e5c0b562a39230ef07419aa93c0998d733f0bd41c6791c8b1f0f8203561b219"),
        ],
    )
    def test_golden_digest(self, text, digest):
        # every index.npz, embedding cache and compat_cache.json is keyed to
        # these vectors through backend_id; a drift must fail here, not re-key
        assert hashlib.sha256(HashingEmbedder().embed(text).tobytes()).hexdigest() == digest
        row = HashingEmbedder().embed_many(["another text", text])[1]
        assert hashlib.sha256(row.tobytes()).hexdigest() == digest

    def test_identical_input_identical_vector(self):
        e = HashingEmbedder()
        assert np.array_equal(e.embed("abc"), e.embed("abc"))

    def test_unit_norm(self):
        e = HashingEmbedder()
        for text in ("abc", "a longer sentence about tables", "x"):
            assert abs(np.linalg.norm(e.embed(text)) - 1.0) < 1e-9

    def test_empty_string_rejected(self):
        with pytest.raises(ValueError):
            HashingEmbedder().embed("")

    def test_identity_cosine(self):
        e = HashingEmbedder()
        assert cosine(e.embed("buildings"), e.embed("buildings")) == pytest.approx(1.0)

    def test_shared_ngrams_score_higher_than_disjoint(self):
        e = HashingEmbedder()
        a = e.embed("building museum")
        b = e.embed("museum building")
        c = e.embed("tax rates")
        assert cosine(a, b) > cosine(a, c)

    def test_dimension_controls_output_length(self):
        assert len(HashingEmbedder(dimension=64).embed("abc")) == 64

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            HashingEmbedder(dimension=0)

    def test_backend_id_names_configuration(self):
        assert HashingEmbedder(dimension=128).backend_id != HashingEmbedder(dimension=64).backend_id

    @given(st.text(min_size=1, max_size=40), st.text(min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_cosine_symmetric_and_bounded(self, a, b):
        e = HashingEmbedder(dimension=32)
        va, vb = e.embed(a), e.embed(b)
        assert cosine(va, vb) == pytest.approx(cosine(vb, va))
        assert -1.0 - 1e-9 <= cosine(va, vb) <= 1.0 + 1e-9


class TestCosine:
    def test_zero_vector_scores_zero(self):
        assert cosine(np.zeros(4), np.ones(4)) == 0.0

    def test_orthogonal(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(0.0)


# ---------------------------------------------------------------------------
# Scripted generator and token ledger
# ---------------------------------------------------------------------------


class TestScriptedGenerator:
    def test_replays_responses_with_token_counts(self):
        gen = ScriptedGenerator(responses=['{"ok": true}'])
        resp = gen.generate(GenerationRequest(prompt="one two three"))
        assert resp.text == '{"ok": true}'
        assert resp.input_tokens == 3
        assert resp.output_tokens == 2
        assert gen.calls == ["one two three"]

    def test_exhaustion_is_a_backend_error(self):
        gen = ScriptedGenerator(responses=[])
        with pytest.raises(BackendError):
            gen.generate(GenerationRequest(prompt="p"))

    def test_fail_sentinel_raises(self):
        gen = ScriptedGenerator(responses=[ScriptedGenerator.FAIL, "ok"])
        with pytest.raises(BackendError):
            gen.generate(GenerationRequest(prompt="p"))
        assert gen.generate(GenerationRequest(prompt="p")).text == "ok"

    def test_reply_callable_mode(self):
        gen = ScriptedGenerator(reply=lambda prompt: prompt.upper())
        assert gen.generate(GenerationRequest(prompt="abc")).text == "ABC"

    def test_empty_prompt_rejected(self):
        with pytest.raises(ValueError):
            ScriptedGenerator(responses=["x"]).generate(GenerationRequest(prompt=""))

    def test_requires_exactly_one_mode(self):
        with pytest.raises(ValueError):
            ScriptedGenerator()
        with pytest.raises(ValueError):
            ScriptedGenerator(responses=["x"], reply=lambda p: p)


class TestTokenLedger:
    def test_two_calls_accumulate(self):
        ledger = TokenLedger()
        ledger.record("selection", 10, 2)
        ledger.record("selection", 5, 1)
        assert ledger.input_tokens == 15
        assert ledger.output_tokens == 3
        assert ledger.stage_totals() == {"selection": (15, 3)}

    def test_stages_tracked_separately(self):
        ledger = TokenLedger()
        ledger.record("purpose", 7, 3)
        ledger.record("sql", 1, 1)
        totals = ledger.stage_totals()
        assert totals["purpose"] == (7, 3)
        assert totals["sql"] == (1, 1)
        assert ledger.input_tokens == 8

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            TokenLedger().record("s", -1, 0)

    def test_monotone_totals(self):
        ledger = TokenLedger()
        seen = []
        for _ in range(5):
            ledger.record("s", 3, 4)
            seen.append((ledger.input_tokens, ledger.output_tokens))
        assert seen == sorted(seen)


# ---------------------------------------------------------------------------
# HTTP clients with injected transport
# ---------------------------------------------------------------------------


def make_transport(script):
    """script: list of (status, body) or Exception instances, consumed in order."""
    calls = []

    def transport(url, payload, headers, timeout):
        calls.append({"url": url, "payload": payload, "headers": headers})
        step = script.pop(0)
        if isinstance(step, Exception):
            raise step
        return step

    return transport, calls


class TestHttpEmbeddingClient:
    def test_success_path(self):
        transport, calls = make_transport([(200, {"embedding": [1.0, 0.0]})])
        client = HttpEmbeddingClient("http://svc", "m1", transport=transport, sleep=lambda s: None)
        vec = client.embed("hello")
        assert list(vec) == [1.0, 0.0]
        assert calls[0]["url"] == "http://svc/v1/embeddings"
        assert calls[0]["payload"] == {"model": "m1", "input": "hello"}

    def test_retries_transient_failures_with_backoff(self):
        transport, _ = make_transport(
            [ConnectionError("down"), (503, {}), (200, {"embedding": [1.0]})]
        )
        sleeps = []
        client = HttpEmbeddingClient(
            "http://svc", "m", transport=transport, sleep=sleeps.append
        )
        assert list(client.embed("x")) == [1.0]
        assert sleeps == [1.0, 2.0]

    def test_gives_up_after_three_attempts(self):
        transport, calls = make_transport([(500, {})] * 5)
        client = HttpEmbeddingClient("http://svc", "m", transport=transport, sleep=lambda s: None)
        with pytest.raises(BackendError, match="after 3 attempts"):
            client.embed("x")
        assert len(calls) == 3

    def test_client_errors_fail_immediately(self):
        transport, calls = make_transport([(401, {})])
        client = HttpEmbeddingClient("http://svc", "m", transport=transport, sleep=lambda s: None)
        with pytest.raises(BackendError, match="401"):
            client.embed("x")
        assert len(calls) == 1

    def test_dimension_mismatch_detected(self):
        # the client keeps no width across calls; one batch must hold one width
        transport, _ = make_transport(
            [(200, {"embedding": [1.0, 2.0]}), (200, {"embedding": [1.0]})]
        )
        client = HttpEmbeddingClient("http://svc", "m", transport=transport, sleep=lambda s: None)
        with pytest.raises(BackendError, match=re.escape("widths [1, 2]")):
            client.embed_many(["a", "b"])

    @pytest.mark.parametrize(
        "body",
        [
            {"not_embedding": []},
            {"embedding": []},
            {"embedding": ["a", "b"]},
            {"embedding": [True, 0.5]},
            {"embedding": [[1, 2], [3, 4]]},
            {"embedding": [1.0, None]},
            {"embedding": [1.0, float("nan")]},
            {"embedding": [float("-inf"), 0.5]},
            [1.0, 2.0],
        ],
        ids=["missing", "empty", "strings", "bool", "nested", "null", "nan", "infinity", "list-body"],
    )
    def test_malformed_reply_rejected(self, body):
        transport, _ = make_transport([(200, body)])
        client = HttpEmbeddingClient("http://svc", "m", transport=transport, sleep=lambda s: None)
        with pytest.raises(BackendError, match="malformed|not an object"):
            client.embed("x")

    def test_batch_sends_one_request_per_text(self):
        transport, calls = make_transport([(200, {"embedding": [1.0, 0.0]}), (200, {"embedding": [0.0, 1.0]})])
        client = HttpEmbeddingClient("http://svc", "m", transport=transport, sleep=lambda s: None)
        assert client.embed_many(["a", "b"]).tolist() == [[1.0, 0.0], [0.0, 1.0]]
        assert [call["payload"]["input"] for call in calls] == ["a", "b"]

    def test_api_key_header_from_environment(self, monkeypatch):
        monkeypatch.setenv("TABLESCOUT_API_KEY", "sekrit")
        transport, calls = make_transport([(200, {"embedding": [1.0]})])
        client = HttpEmbeddingClient("http://svc", "m", transport=transport, sleep=lambda s: None)
        client.embed("x")
        assert calls[0]["headers"]["Authorization"] == "Bearer sekrit"


class TestHttpGenerationClient:
    def test_success_path(self):
        transport, calls = make_transport(
            [(200, {"text": "hi", "input_tokens": 4, "output_tokens": 1})]
        )
        client = HttpGenerationClient("http://svc/", "g", transport=transport, sleep=lambda s: None)
        resp = client.generate(GenerationRequest(prompt="p", max_tokens=99))
        assert (resp.text, resp.input_tokens, resp.output_tokens) == ("hi", 4, 1)
        assert calls[0]["url"] == "http://svc/v1/generate"
        assert calls[0]["payload"]["max_tokens"] == 99
        assert calls[0]["payload"]["temperature"] == 0.0

    def test_malformed_reply_is_backend_error(self):
        transport, _ = make_transport([(200, {"text": "hi"})])
        client = HttpGenerationClient("http://svc", "g", transport=transport, sleep=lambda s: None)
        with pytest.raises(BackendError, match="malformed"):
            client.generate(GenerationRequest(prompt="p"))

    @pytest.mark.parametrize(
        "body",
        [
            {"input_tokens": 4, "output_tokens": 1},
            {"text": "hi", "input_tokens": -5, "output_tokens": 1},
            {"text": "hi", "input_tokens": 4, "output_tokens": 2.7},
            {"text": "hi", "input_tokens": True, "output_tokens": 1},
            {"text": "hi", "input_tokens": "4", "output_tokens": 1},
            ["hi", 4, 1],
            {"text": None, "input_tokens": 4, "output_tokens": 1},
            {"text": ["hi"], "input_tokens": 4, "output_tokens": 1},
            {"text": 7, "input_tokens": 4, "output_tokens": 1},
        ],
        ids=["no-text", "negative", "fraction", "bool", "string", "list-body", "null-text", "list-text", "number-text"],
    )
    def test_malformed_counts_or_body_rejected(self, body):
        transport, calls = make_transport([(200, body)])
        client = HttpGenerationClient("http://svc", "g", transport=transport, sleep=lambda s: None)
        with pytest.raises(BackendError, match="malformed|not an object"):
            client.generate(GenerationRequest(prompt="p"))
        assert len(calls) == 1  # a malformed reply is not retried

    def test_backend_down_errors_after_retries(self):
        transport, calls = make_transport([ConnectionError("x")] * 3)
        client = HttpGenerationClient("http://svc", "g", transport=transport, sleep=lambda s: None)
        with pytest.raises(BackendError):
            client.generate(GenerationRequest(prompt="p"))
        assert len(calls) == 3


# ---------------------------------------------------------------------------
# Caching embedder
# ---------------------------------------------------------------------------


class TestCachingEmbedder:
    def test_text_key_is_the_first_128_bits_of_the_sha256_of_the_utf8_bytes(self):
        assert text_key("customers.customer_id") == "0daffcf13c1a52c3a2edb484e6e27287"
        text = "naïve 漢字 \u2028 text"
        assert text_key(text) == hashlib.sha256(text.encode("utf-8")).hexdigest()[:32]

    def test_caches_and_persists(self, tmp_path):
        path = tmp_path / "cache.json"
        backend = HashingEmbedder(dimension=16)
        cached = CachingEmbedder(backend, path)
        v1 = cached.embed("text")
        v2 = cached.embed("text")
        assert np.array_equal(v1, v2)
        assert cached.backend_calls == 1
        cached.save()

        reloaded = CachingEmbedder(HashingEmbedder(dimension=16), path)
        v3 = reloaded.embed("text")
        assert np.array_equal(v1, v3)
        assert reloaded.backend_calls == 0

    def test_backend_mismatch_refused(self, tmp_path):
        path = tmp_path / "cache.json"
        cached = CachingEmbedder(HashingEmbedder(dimension=16), path)
        cached.embed("t")
        cached.save()
        with pytest.raises(BackendError):
            CachingEmbedder(HashingEmbedder(dimension=32), path)

    def test_json_cache_of_earlier_releases_refused(self, tmp_path):
        path = tmp_path / "embedding_cache.json"
        backend = HashingEmbedder(dimension=16)
        old = {"version": 1, "backend_id": backend.backend_id, "dimension": 16,
               "entries": {"ab" * 32: [0.25] * 16}}
        path.write_text(json.dumps(old), encoding="utf-8")
        with pytest.raises(CorpusError, match=re.escape(str(path))):
            CachingEmbedder(backend, path)

    def test_http_backend_rerun_served_from_cache_saves(self, tmp_path):
        path = tmp_path / "embedding_cache.npz"

        def client(script):
            transport, _ = make_transport(script)
            return HttpEmbeddingClient("http://svc", "m", transport=transport, sleep=lambda s: None)

        first = CachingEmbedder(client([(200, {"embedding": [0.6, 0.8]})]), path)
        vec = first.embed("text")
        first.save()
        # an empty script fails any call, so the rerun is served from the file
        rerun = CachingEmbedder(client([]), path)
        assert np.array_equal(rerun.embed("text"), vec)
        rerun.save()
        assert np.array_equal(CachingEmbedder(client([]), path).embed("text"), vec)
        empty_path = tmp_path / "empty.npz"
        CachingEmbedder(client([]), empty_path).save()
        assert CachingEmbedder(client([]), empty_path).backend_calls == 0

    def test_batch_sends_each_distinct_miss_once(self, tmp_path):
        class Recording(HashingEmbedder):
            def __init__(self):
                super().__init__(dimension=16)
                self.batches = []

            def embed_many(self, texts):
                self.batches.append(list(texts))
                return super().embed_many(texts)

        path = tmp_path / "cache.npz"
        backend = Recording()
        cached = CachingEmbedder(backend, path)
        assert cached.embed_many(["old"]).tobytes() == HashingEmbedder(16).embed("old").tobytes()
        texts = ["new", "old", "new", "other", "old"]
        vectors = cached.embed_many(texts)
        assert backend.batches == [["old"], ["new", "other"]]
        assert cached.backend_calls == 3
        assert [row.tobytes() for row in vectors] == [HashingEmbedder(16).embed(t).tobytes() for t in texts]
        assert cached.embed_many(["other", "old"]).tobytes() == vectors[[3, 1]].tobytes()
        assert backend.batches == [["old"], ["new", "other"]]
        cached.save()
        reloaded = CachingEmbedder(Recording(), path)
        assert reloaded.embed_many(texts).tobytes() == vectors.tobytes()
        assert reloaded.backend_calls == 0

    def test_batch_of_wrong_width_leaves_cache_unchanged(self, tmp_path):
        path = tmp_path / "cache.npz"
        first = CachingEmbedder(HashingEmbedder(dimension=2), path)
        first.embed("kept")
        first.save()
        files = [(p.name, p.read_bytes()) for p in sorted(tmp_path.iterdir())]
        # a backend under the same id whose vectors came back wider than the cache's
        wide = HashingEmbedder(dimension=3)
        wide.backend_id = first.backend_id
        cached = CachingEmbedder(wide, path)
        with pytest.raises(BackendError, match="dimension 3, expected 2"):
            cached.embed_many(["kept", "fresh", "other"])
        assert cached.backend_calls == 0
        cached.save()
        assert [(p.name, p.read_bytes()) for p in sorted(tmp_path.iterdir())] == files

    def test_passthrough_properties(self):
        backend = HashingEmbedder(dimension=16)
        cached = CachingEmbedder(backend)
        assert cached.backend_id == backend.backend_id
