import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import numpy.testing as npt
import pytest

from stockfuse.data import DocumentDay, load_embeddings
from stockfuse.embed import (
    EmbedRequest,
    ProviderConfig,
    build_embedding_table,
    embed_texts,
    text_cache_key,
)
from stockfuse.errors import (
    ConfigError,
    ContractError,
    FormatError,
    MissingEmbeddingError,
    ProviderError,
)

DIM = 8


class StubState:
    def __init__(self):
        self.requests = 0
        self.fail_first = 0
        self.fail_status = 503
        self.in_flight = 0
        self.max_in_flight = 0
        self.delay = 0.0
        self.wrong_width = False
        self.auth_seen = []
        self.lock = threading.Lock()


def _stub_vector(text: str, index: int) -> list[float]:
    # index-tagged deterministic vector: position 0 carries the batch index,
    # position 1 a hash of the text
    vec = [0.0] * DIM
    vec[0] = float(index)
    vec[1] = float(sum(text.encode()) % 997)
    return vec


class StubHandler(BaseHTTPRequestHandler):
    state: StubState = None

    def log_message(self, *args):
        pass

    def do_POST(self):
        st = self.state
        with st.lock:
            st.requests += 1
            st.in_flight += 1
            st.max_in_flight = max(st.max_in_flight, st.in_flight)
            st.auth_seen.append(self.headers.get("Authorization"))
            fail = st.fail_first > 0
            if fail:
                st.fail_first -= 1
        try:
            if st.delay:
                time.sleep(st.delay)
            body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            if fail:
                self.send_response(st.fail_status)
                self.end_headers()
                return
            width = DIM + 1 if st.wrong_width else DIM
            data = [
                {"index": i, "embedding": _stub_vector(t, i)[: width] + [0.0] * max(0, width - DIM)}
                for i, t in enumerate(body["input"])
            ]
            data.reverse()  # client must sort by index
            payload = json.dumps({"data": data}).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)
        finally:
            with st.lock:
                st.in_flight -= 1


@pytest.fixture
def stub_server():
    state = StubState()
    handler = type("Handler", (StubHandler,), {"state": state})
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    url = f"http://127.0.0.1:{server.server_port}/embed"
    yield url, state
    server.shutdown()
    thread.join(timeout=2)


def http_cfg(url, **kw):
    defaults = dict(backend="http", endpoint=url, dim=DIM, max_batch=4,
                    max_parallel=3, retry_base_delay=0.01)
    defaults.update(kw)
    return ProviderConfig(**defaults)


class TestFileBackend:
    def write_cache(self, tmp_path, model, texts):
        path = tmp_path / "cache.jsonl"
        with open(path, "w") as fh:
            for i, t in enumerate(texts):
                vec = [float(i)] + [0.0] * (DIM - 1)
                fh.write(json.dumps({"key": text_cache_key(model, t), "vector": vec}) + "\n")
        return path

    def test_cache_hit_verbatim(self, tmp_path):
        path = self.write_cache(tmp_path, "m", ["alpha", "beta"])
        cfg = ProviderConfig(backend="file", endpoint=str(path), dim=DIM)
        out = embed_texts(EmbedRequest(texts=["alpha", "beta"], model="m"), cfg)
        npt.assert_array_equal(out[0], [0.0] * DIM)
        npt.assert_array_equal(out[1], [1.0] + [0.0] * (DIM - 1))

    def test_cache_miss(self, tmp_path):
        path = self.write_cache(tmp_path, "m", ["alpha"])
        cfg = ProviderConfig(backend="file", endpoint=str(path), dim=DIM)
        with pytest.raises(MissingEmbeddingError):
            embed_texts(EmbedRequest(texts=["alpha", "unseen"], model="m"), cfg)

    def test_model_name_partitions_cache(self, tmp_path):
        path = self.write_cache(tmp_path, "m1", ["alpha"])
        cfg = ProviderConfig(backend="file", endpoint=str(path), dim=DIM)
        with pytest.raises(MissingEmbeddingError):
            embed_texts(EmbedRequest(texts=["alpha"], model="m2"), cfg)

    @pytest.mark.parametrize("vector", [5, None, "abc", [1, "x"]])
    def test_malformed_cache_vector_raises(self, tmp_path, vector):
        path = self.write_cache(tmp_path, "m", ["alpha"])
        with open(path, "a") as fh:
            fh.write(json.dumps({"key": text_cache_key("m", "beta"), "vector": vector}) + "\n")
        cfg = ProviderConfig(backend="file", endpoint=str(path), dim=DIM)
        with pytest.raises(ProviderError, match="cache.jsonl:2: bad cache line"):
            embed_texts(EmbedRequest(texts=["alpha"], model="m"), cfg)

    def test_cache_line_not_utf8_raises(self, tmp_path):
        path = self.write_cache(tmp_path, "m", ["alpha", "beta", "gamma"])
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join([lines[0], b"\xff" + lines[1], lines[2]]))
        cfg = ProviderConfig(backend="file", endpoint=str(path), dim=DIM)
        with pytest.raises(FormatError, match=r"cache\.jsonl:2: not UTF-8"):
            embed_texts(EmbedRequest(texts=["alpha"], model="m"), cfg)


class TestHttpBackend:
    def test_stub_fixture_exact(self, stub_server):
        url, state = stub_server
        out = embed_texts(EmbedRequest(texts=["a", "b", "c"]), http_cfg(url))
        for i, t in enumerate(["a", "b", "c"]):
            npt.assert_array_equal(out[i], _stub_vector(t, i))
        assert state.requests == 1

    def test_order_preserved_across_batches(self, stub_server):
        url, state = stub_server
        texts = [f"text-{i}" for i in range(11)]
        out = embed_texts(EmbedRequest(texts=texts), http_cfg(url, max_batch=3))
        # index resets per batch of 3; text hash identifies the source text
        for i, t in enumerate(texts):
            assert out[i][0] == i % 3
            assert out[i][1] == float(sum(t.encode()) % 997)

    def test_retry_then_success(self, stub_server):
        url, state = stub_server
        state.fail_first = 2
        out = embed_texts(EmbedRequest(texts=["a"]), http_cfg(url))
        assert len(out) == 1
        assert state.requests == 3

    def test_retries_exhausted(self, stub_server):
        url, state = stub_server
        state.fail_first = 99
        with pytest.raises(ProviderError, match="3 attempts"):
            embed_texts(EmbedRequest(texts=["a"]), http_cfg(url))
        assert state.requests == 3

    def test_rate_limit_retried(self, stub_server):
        url, state = stub_server
        state.fail_first, state.fail_status = 2, 429
        out = embed_texts(EmbedRequest(texts=["a"]), http_cfg(url))
        npt.assert_array_equal(out[0], _stub_vector("a", 0))
        assert state.requests == 3

    def test_rate_limit_retries_exhausted(self, stub_server):
        url, state = stub_server
        state.fail_first, state.fail_status = 99, 429
        with pytest.raises(ProviderError, match="3 attempts.*429"):
            embed_texts(EmbedRequest(texts=["a"]), http_cfg(url))
        assert state.requests == 3

    def test_client_error_not_retried(self, stub_server):
        url, state = stub_server
        state.fail_first, state.fail_status = 99, 400
        with pytest.raises(ProviderError, match="HTTP 400"):
            embed_texts(EmbedRequest(texts=["a"]), http_cfg(url))
        assert state.requests == 1

    def test_wrong_width_contract_error(self, stub_server):
        url, state = stub_server
        state.wrong_width = True
        with pytest.raises(ContractError, match=f"{DIM}"):
            embed_texts(EmbedRequest(texts=["a"]), http_cfg(url))

    def test_parallelism_bounded(self, stub_server):
        url, state = stub_server
        state.delay = 0.05
        texts = [f"t{i}" for i in range(12)]
        embed_texts(EmbedRequest(texts=texts), http_cfg(url, max_batch=1, max_parallel=2))
        assert state.requests == 12
        assert 1 <= state.max_in_flight <= 2

    def test_auth_header_sent(self, stub_server, monkeypatch):
        url, state = stub_server
        monkeypatch.setenv("STUB_TOKEN", "sekret")
        embed_texts(EmbedRequest(texts=["a"]), http_cfg(url, auth_env="STUB_TOKEN"))
        assert state.auth_seen == ["Bearer sekret"]

    def test_auth_env_missing(self, stub_server, monkeypatch):
        url, _ = stub_server
        monkeypatch.delenv("NO_SUCH_TOKEN", raising=False)
        with pytest.raises(ConfigError, match="NO_SUCH_TOKEN"):
            embed_texts(EmbedRequest(texts=["a"]), http_cfg(url, auth_env="NO_SUCH_TOKEN"))


class TestRequestValidation:
    def test_empty_texts(self):
        with pytest.raises(ConfigError):
            EmbedRequest(texts=[]).validate()

    def test_blank_text(self):
        with pytest.raises(ConfigError):
            EmbedRequest(texts=["ok", "  "]).validate()

    def test_bad_backend(self):
        with pytest.raises(ConfigError):
            ProviderConfig(backend="carrier-pigeon", endpoint="x").validate()


class TestBuildEmbeddingTable:
    def test_empty_days(self, stub_server, tmp_path):
        url, state = stub_server
        table = build_embedding_table([], http_cfg(url), out_path=tmp_path / "e.jsonl")
        assert not table.entries and state.requests == 0

    def test_mean_pool_oracle(self, stub_server, tmp_path):
        url, _ = stub_server
        days = [DocumentDay(symbol="A", date="2020-01-02", texts=["x", "y"])]
        table = build_embedding_table(days, http_cfg(url), out_path=tmp_path / "e.jsonl")
        e1 = np.array(_stub_vector("x", 0))
        e2 = np.array(_stub_vector("y", 1))
        npt.assert_allclose(table.get("A", "2020-01-02"), (e1 + e2) / 2.0, atol=1e-12)

    def test_rerun_makes_zero_calls(self, stub_server, tmp_path):
        url, state = stub_server
        days = [
            DocumentDay(symbol="A", date="2020-01-02", texts=["x"]),
            DocumentDay(symbol="B", date="2020-01-03", texts=["y", "z"]),
        ]
        out = tmp_path / "e.jsonl"
        build_embedding_table(days, http_cfg(url), out_path=out)
        first = state.requests
        assert first > 0
        table = build_embedding_table(days, http_cfg(url), out_path=out)
        assert state.requests == first  # zero further provider calls
        assert len(table.entries) == 2

    def test_incremental_file_resumable(self, stub_server, tmp_path):
        url, state = stub_server
        out = tmp_path / "e.jsonl"
        build_embedding_table(
            [DocumentDay(symbol="A", date="2020-01-02", texts=["x"])],
            http_cfg(url), out_path=out,
        )
        # a later run picks up the existing file and only embeds the new day
        state.requests = 0
        table = build_embedding_table(
            [
                DocumentDay(symbol="A", date="2020-01-02", texts=["x"]),
                DocumentDay(symbol="A", date="2020-01-03", texts=["w"]),
            ],
            http_cfg(url), out_path=out,
        )
        assert state.requests == 1
        assert len(load_embeddings(out).entries) == 2
        assert len(table.entries) == 2

    def test_days_without_texts_skipped(self, stub_server, tmp_path):
        url, state = stub_server
        days = [DocumentDay(symbol="A", date="2020-01-02", texts=[])]
        table = build_embedding_table(days, http_cfg(url), out_path=tmp_path / "e.jsonl")
        assert not table.entries and state.requests == 0


class TestFileBackendTable:
    def write_cache(self, tmp_path, texts):
        path = tmp_path / "cache.jsonl"
        with open(path, "w") as fh:
            for i, t in enumerate(texts):
                vec = [float(i), float(len(t))] + [0.5] * (DIM - 2)
                fh.write(json.dumps({"key": text_cache_key("m", t), "vector": vec}) + "\n")
        return path

    def days(self):
        return [
            DocumentDay(symbol="A", date="2020-01-02", texts=["a", "bb"]),
            DocumentDay(symbol="A", date="2020-01-03", texts=["ccc"]),
            DocumentDay(symbol="B", date="2020-01-02", texts=["bb", "dddd", "a"]),
            DocumentDay(symbol="B", date="2020-01-03", texts=[]),
        ]

    def test_cache_parsed_once_per_table_build(self, tmp_path, monkeypatch):
        from stockfuse import embed

        cfg = ProviderConfig(
            backend="file", endpoint=str(self.write_cache(tmp_path, ["a", "bb", "ccc", "dddd"])),
            dim=DIM, model="m",
        )
        expected = {
            (d.symbol, d.date): np.mean(embed_texts(EmbedRequest(texts=d.texts, model="m"), cfg),
                                        axis=0)
            for d in self.days() if d.texts
        }
        parses = []
        real = embed._load_text_cache
        monkeypatch.setattr(embed, "_load_text_cache", lambda p: parses.append(p) or real(p))
        out = tmp_path / "e.jsonl"
        table = build_embedding_table(self.days(), cfg, out_path=out)
        assert len(parses) == 1
        assert table.entries.keys() == expected.keys()
        for key, vec in expected.items():
            npt.assert_array_equal(table.entries[key], vec)
        reread = load_embeddings(out, dim=DIM)
        for key, vec in expected.items():
            npt.assert_array_equal(reread.entries[key], vec)
        # a resumed build with nothing left to embed does not read the cache
        build_embedding_table(self.days(), cfg, out_path=out)
        assert len(parses) == 1

    def test_resume_after_torn_last_line(self, tmp_path, caplog):
        cfg = ProviderConfig(
            backend="file", endpoint=str(self.write_cache(tmp_path, ["a", "bb", "ccc", "dddd"])),
            dim=DIM, model="m",
        )
        full = tmp_path / "full.jsonl"
        build_embedding_table(self.days(), cfg, out_path=full)
        lines = full.read_text().splitlines(keepends=True)
        torn = tmp_path / "torn.jsonl"
        torn.write_text(lines[0] + lines[1][: len(lines[1]) // 2])
        table = build_embedding_table(self.days(), cfg, out_path=torn)
        assert "unterminated last line" in caplog.text
        assert torn.read_text() == full.read_text()
        assert table.entries.keys() == load_embeddings(full, dim=DIM).entries.keys()
