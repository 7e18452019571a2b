"""Ethereum-style RPC ingestion: call-tracer traces + receipt logs.

Raw responses are normalized into the same document shape the file loader
accepts, and cached to disk keyed by (chain_id, tx_hash) so repeated runs
replay offline. A client asks the node for its chain id once, then serves
cached hashes from disk. When that request fails (`RpcUnavailable`: the
node is down or its reply is not a chain id), a hash cached under exactly
one chain directory is still replayed; with no such entry, or one under
each of several chains, the original error is raised.
"""

from __future__ import annotations

import os
from pathlib import Path

from .errors import MalformedTrace, RpcUnavailable, TraceUnsupported, TxNotFound
from .ingest import (
    TxRecord,
    _norm_hex,
    _norm_quantity,
    bounded_repr,
    decode_json,
    read_json,
    record_from_document,
    write_json,
)

_METHOD_NOT_FOUND = -32601


class RpcClient:
    """Minimal JSON-RPC client for trace-by-hash and receipt retrieval.

    `session` only needs a requests-compatible ``post``; tests inject fakes.
    `requests` is imported only to build the default session, so a command
    that makes no request does not pay for its import.
    """

    def __init__(self, endpoint: str, cache_dir: str | Path | None = None,
                 session=None, timeout: float = 30.0):
        self.endpoint = endpoint
        self.cache_dir = Path(cache_dir) if cache_dir else None
        if session is None:
            import requests
            session = requests.Session()
        self.session = session
        self.timeout = timeout
        self._chain_id: int | None = None
        self._next_id = 0

    def _post(self, method: str, params: list) -> object:
        self._next_id += 1
        payload = {"jsonrpc": "2.0", "id": self._next_id,
                   "method": method, "params": params}
        try:
            response = self.session.post(self.endpoint, json=payload, timeout=self.timeout)
        except Exception as exc:
            raise RpcUnavailable(f"{self.endpoint}: {exc}") from exc
        status = getattr(response, "status_code", 200)
        if status >= 400:
            raise RpcUnavailable(f"{self.endpoint}: {method}: HTTP {status}")
        body = decode_json(response.content, RpcUnavailable,
                           f"{self.endpoint}: {method}: HTTP {status}")
        if not isinstance(body, dict):
            raise RpcUnavailable(f"{self.endpoint}: {method}: HTTP {status}, "
                                 "body is not a JSON-RPC object")
        err = body.get("error")
        if err:
            if not isinstance(err, dict):
                raise RpcUnavailable(f"{method}: {err}")
            if err.get("code") == _METHOD_NOT_FOUND:
                raise TraceUnsupported(f"node lacks {method}")
            raise RpcUnavailable(f"{method}: {err.get('message', err)}")
        return body.get("result")

    def _post_object(self, method: str, params: list) -> dict | None:
        """`_post` for a method whose result is an object or null."""
        result = self._post(method, params)
        if result is not None and not isinstance(result, dict):
            raise RpcUnavailable(f"{method}: result is {type(result).__name__}, "
                                 "not an object")
        return result

    def chain_id(self) -> int:
        if self._chain_id is None:
            result = self._post("eth_chainId", [])
            try:
                if result is None:  # the quantity rule reads null as 0; no chain id is null
                    raise MalformedTrace("eth_chainId: null")
                self._chain_id = _norm_quantity(result, "eth_chainId")
            except MalformedTrace as exc:
                raise RpcUnavailable(f"eth_chainId: result {bounded_repr(result)} is not a "
                                     "chain id") from exc
        return self._chain_id

    def _cache_path(self, chain_id: int, tx_hash: str) -> Path | None:
        if self.cache_dir is None:
            return None
        return self.cache_dir / str(chain_id) / f"{tx_hash}.json"

    def fetch_tx_record(self, tx_hash: str) -> TxRecord:
        """The record of `tx_hash`, from the cache or the node (see the module
        docstring for offline replay). A hash that is not 0x and 32 bytes of
        hex is MalformedTrace before any request or cache access."""
        tx_hash = _norm_hex(tx_hash, "tx hash", 32)
        try:
            chain_id = self.chain_id()
        except RpcUnavailable:  # offline: replay the hash's one cache entry, if any
            entries = list(self.cache_dir.glob(f"*/{tx_hash}.json")) if self.cache_dir else []
            if len(entries) != 1:
                raise
            return record_from_document(read_json(entries[0], RpcUnavailable))
        cache_path = self._cache_path(chain_id, tx_hash)
        if cache_path is not None and cache_path.exists():
            return record_from_document(read_json(cache_path, RpcUnavailable))

        receipt = self._post_object("eth_getTransactionReceipt", [tx_hash])
        if receipt is None:
            raise TxNotFound(tx_hash)
        trace = self._post_object("debug_traceTransaction", [tx_hash, {"tracer": "callTracer"}])
        if trace is None:
            raise TraceUnsupported("trace method returned no result")

        doc = {
            "tx_hash": tx_hash,
            "chain_id": chain_id,
            "block_number": receipt.get("blockNumber", "0x0"),
            "trace": trace,
            "logs": receipt.get("logs", []),
        }
        record = record_from_document(doc)

        if cache_path is not None:  # written beside, then renamed: never partial
            tmp = cache_path.with_name(f"{cache_path.name}.{os.getpid()}.tmp")
            try:
                write_json(tmp, doc)
                os.replace(tmp, cache_path)
            finally:
                tmp.unlink(missing_ok=True)
        return record
