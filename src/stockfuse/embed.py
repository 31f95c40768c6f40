"""Document embeddings via a pluggable provider.

Two backends share one call surface: `file` resolves each (model, text) pair
against a read-only JSONL cache keyed by content hash (the primary path --
no network, fully reproducible), and `http` POSTs batches to a generic
embeddings service speaking {"model", "input": [...]} ->
{"data": [{"index", "embedding"}]}. Batches run concurrently up to
`max_parallel`; results always come back in input order. A failed
connection, a 5xx or a 429 (rate limited) is retried with exponential
backoff, `RETRY_ATTEMPTS` attempts in all; any other status fails at once.

`build_embedding_table` mean-pools each day's texts into one vector per
(symbol, date) and appends to embeddings.jsonl as it goes, so an interrupted
run resumes where it stopped.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import requests

from .data import DocumentDay, EmbeddingTable, load_embeddings, parse_vector
from .errors import ConfigError, ContractError, MissingEmbeddingError, ProviderError

log = logging.getLogger(__name__)

RETRY_ATTEMPTS = 3


@dataclass
class EmbedRequest:
    texts: list[str]
    model: str = "generic-embedding"

    def validate(self) -> "EmbedRequest":
        if not self.texts:
            raise ConfigError("embed request with no texts")
        if any(not t.strip() for t in self.texts):
            raise ConfigError("embed request contains an empty text")
        return self


@dataclass
class ProviderConfig:
    backend: str = "file"  # "file" or "http"
    endpoint: str = ""  # cache path (file) or service URL (http)
    auth_env: str | None = None  # env var holding the bearer token
    dim: int = 1536
    max_batch: int = 16
    max_parallel: int = 4
    model: str = "generic-embedding"
    retry_base_delay: float = 0.5
    timeout: float = 30.0

    def validate(self) -> "ProviderConfig":
        if self.backend not in ("file", "http"):
            raise ConfigError(f"unknown embeddings backend {self.backend!r}")
        if self.dim < 1:
            raise ConfigError(f"dim must be positive, got {self.dim}")
        if self.max_batch < 1 or self.max_parallel < 1:
            raise ConfigError("max_batch and max_parallel must be >= 1")
        if not self.endpoint:
            raise ConfigError("endpoint (cache path or URL) is required")
        return self


def text_cache_key(model: str, text: str) -> str:
    return hashlib.sha256(f"{model}\x00{text}".encode("utf-8")).hexdigest()


def _load_text_cache(path) -> dict[str, np.ndarray]:
    cache = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                cache[str(obj["key"])] = parse_vector(obj["vector"])
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise ProviderError(f"{path}:{lineno}: bad cache line: {exc}") from exc
    return cache


def _auth_headers(cfg: ProviderConfig) -> dict[str, str]:
    if cfg.auth_env is None:
        return {}
    token = os.environ.get(cfg.auth_env)
    if not token:
        raise ConfigError(f"auth env var {cfg.auth_env!r} is not set")
    return {"Authorization": f"Bearer {token}"}


def _post_batch(cfg: ProviderConfig, model: str, texts: list[str], headers) -> list[np.ndarray]:
    payload = {"model": model, "input": texts}
    last_exc = None
    for attempt in range(RETRY_ATTEMPTS):
        if attempt:
            time.sleep(cfg.retry_base_delay * 2 ** (attempt - 1))
        try:
            resp = requests.post(cfg.endpoint, json=payload, headers=headers, timeout=cfg.timeout)
        except requests.RequestException as exc:
            last_exc = exc
            log.warning("embed request attempt %d failed: %s", attempt + 1, exc)
            continue
        if resp.status_code >= 500 or resp.status_code == 429:  # 429: rate limited
            last_exc = ProviderError(f"HTTP {resp.status_code}")
            log.warning("embed request attempt %d: HTTP %d", attempt + 1, resp.status_code)
            continue
        if resp.status_code != 200:
            raise ProviderError(f"provider returned HTTP {resp.status_code}: {resp.text[:200]}")
        try:
            data = resp.json()["data"]
            items = sorted(data, key=lambda item: item["index"])
            vectors = [np.asarray(item["embedding"], dtype=np.float64) for item in items]
        except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
            raise ContractError(f"malformed provider response: {exc}") from exc
        if len(vectors) != len(texts):
            raise ContractError(f"provider returned {len(vectors)} vectors for {len(texts)} texts")
        for vec in vectors:
            if vec.shape != (cfg.dim,):
                raise ContractError(
                    f"provider returned width {vec.shape[0] if vec.ndim == 1 else vec.shape}, "
                    f"expected {cfg.dim}"
                )
        return vectors
    raise ProviderError(
        f"embeddings request failed after {RETRY_ATTEMPTS} attempts: {last_exc}"
    )


def embed_texts(req: EmbedRequest, cfg: ProviderConfig, *, _cache=None) -> list[np.ndarray]:
    """One vector per input text, in input order.

    `_cache` is the parsed `file` cache, which `build_embedding_table` reads
    once per table build; left out, the cache file is parsed on this call.
    """
    req.validate()
    cfg.validate()
    if cfg.backend == "file":
        cache = _load_text_cache(cfg.endpoint) if _cache is None else _cache
        keys = [text_cache_key(req.model, t) for t in req.texts]
        missing = [
            f"{k[:12]}... ({t[:30]!r})" for k, t in zip(keys, req.texts) if k not in cache
        ]
        if missing:
            raise MissingEmbeddingError(missing)
        vectors = [cache[k] for k in keys]
        for vec in vectors:
            if vec.shape != (cfg.dim,):
                raise ContractError(f"cached width {vec.shape}, expected ({cfg.dim},)")
        return vectors
    headers = _auth_headers(cfg)
    batches = [req.texts[i : i + cfg.max_batch] for i in range(0, len(req.texts), cfg.max_batch)]
    if len(batches) == 1:
        return _post_batch(cfg, req.model, batches[0], headers)
    with ThreadPoolExecutor(max_workers=cfg.max_parallel) as pool:
        futures = [pool.submit(_post_batch, cfg, req.model, b, headers) for b in batches]
        results = [f.result() for f in futures]
    return [vec for batch in results for vec in batch]


def _cut_unterminated_tail(path: Path) -> None:
    """Truncate a last line that lacks its newline: a write cut short.

    Appending after it would glue the next entry onto the fragment. The
    entry it held, if any, is not in the table read afterwards, so it is
    embedded again.
    """
    with open(path, "rb+") as fh:
        end = fh.seek(0, os.SEEK_END)
        pos = end
        while pos > 0:
            step = min(pos, 1 << 16)
            fh.seek(pos - step)
            chunk = fh.read(step)
            cut = chunk.rfind(b"\n")
            if cut >= 0:
                pos += cut + 1 - step
                break
            pos -= step
        if pos < end:
            log.warning("%s: dropping %d bytes of an unterminated last line", path, end - pos)
            fh.truncate(pos)


def build_embedding_table(
    days: list[DocumentDay], cfg: ProviderConfig, out_path=None
) -> EmbeddingTable:
    """Mean-pool each day's texts into the (symbol, date) table.

    Idempotent: existing entries in `out_path` are kept and skipped, and
    each new entry is flushed as soon as it is computed, so a partial run
    leaves a valid, resumable file. The `file` backend's cache is parsed
    once per call, and only if there is a day to embed.
    """
    cfg.validate()
    out_path = Path(out_path) if out_path is not None else None
    if out_path is not None and out_path.exists():
        _cut_unterminated_tail(out_path)
        table = load_embeddings(out_path, dim=cfg.dim)
    else:
        table = EmbeddingTable(dim=cfg.dim)
    todo = [
        d for d in sorted(days, key=lambda d: (d.symbol, d.date))
        if d.texts and (d.symbol, d.date) not in table
    ]
    cache = _load_text_cache(cfg.endpoint) if todo and cfg.backend == "file" else None
    fh = open(out_path, "a") if out_path is not None else None
    try:
        for day in todo:
            vectors = embed_texts(EmbedRequest(texts=day.texts, model=cfg.model), cfg, _cache=cache)
            pooled = np.mean(vectors, axis=0)
            table.put(day.symbol, day.date, pooled)
            if fh is not None:
                fh.write(
                    json.dumps(
                        {"symbol": day.symbol, "date": day.date, "vector": pooled.tolist()},
                        sort_keys=True,
                    )
                    + "\n"
                )
                fh.flush()
    finally:
        if fh is not None:
            fh.close()
    return table
