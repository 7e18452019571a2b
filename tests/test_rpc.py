import json

import pytest

from bridgeguard.errors import MalformedTrace, RpcUnavailable, TraceUnsupported, TxNotFound
from bridgeguard.hashing import canonical_json
from bridgeguard.ingest import record_from_document
from bridgeguard import rpc
from bridgeguard.rpc import RpcClient
from conftest import nest

A = "0x" + "aa" * 20
B = "0x" + "bb" * 20
TX = "0x" + "11" * 32

TRACE = {"type": "CALL", "from": A, "to": B, "input": "0x" + "a9059cbb" + "00" * 64,
         "value": "0x0", "calls": []}
RECEIPT = {
    "blockNumber": "0x10",
    "logs": [{"address": B, "topics": ["0x" + "22" * 32], "data": "0x", "logIndex": "0x0"}],
}


class FakeResponse:
    """A reply whose body is `body` as JSON bytes."""

    def __init__(self, body, status_code=200):
        self.content = canonical_json(body).encode()
        self.status_code = status_code


class FakeNode:
    """requests-compatible .post serving a one-transaction chain."""

    def __init__(self, with_trace=True, known=True):
        self.calls = []
        self.with_trace = with_trace
        self.known = known

    def post(self, url, json=None, timeout=None):
        method = json["method"]
        self.calls.append(method)
        if method == "eth_chainId":
            return FakeResponse({"result": "0x1"})
        if method == "eth_getTransactionReceipt":
            params_hash = json["params"][0]
            if not self.known or params_hash != TX:
                return FakeResponse({"result": None})
            return FakeResponse({"result": RECEIPT})
        if method == "debug_traceTransaction":
            if not self.with_trace:
                return FakeResponse({"error": {"code": -32601,
                                               "message": "method not found"}})
            return FakeResponse({"result": TRACE})
        raise AssertionError(f"unexpected method {method}")


def test_fetch_builds_normalized_record(tmp_path):
    node = FakeNode()
    client = RpcClient("http://node", cache_dir=tmp_path, session=node)
    record = client.fetch_tx_record(TX)
    assert record.tx_hash == TX
    assert record.chain_id == 1
    assert record.block_number == 16
    assert record.root_frame.selector == "a9059cbb"
    assert len(record.logs) == 1


def test_refetch_hits_cache_without_network(tmp_path):
    node = FakeNode()
    client = RpcClient("http://node", cache_dir=tmp_path, session=node)
    first = client.fetch_tx_record(TX)
    network_calls = len(node.calls)
    second = client.fetch_tx_record(TX)
    assert second == first
    assert len(node.calls) == network_calls  # served from disk

    # A fresh client (new process) replays from the same cache.
    offline = RpcClient("http://node", cache_dir=tmp_path, session=FakeNode(known=False))
    assert offline.fetch_tx_record(TX).tx_hash == TX


class DownNode:
    """A session whose node cannot be reached."""

    def post(self, url, json=None, timeout=None):
        raise ConnectionError("connection refused")


def test_node_down_replays_the_one_cached_entry(tmp_path):
    first = RpcClient("http://node", cache_dir=tmp_path, session=FakeNode()).fetch_tx_record(TX)
    offline = RpcClient("http://node", cache_dir=tmp_path, session=DownNode())
    assert offline.fetch_tx_record(TX) == first
    with pytest.raises(RpcUnavailable, match="connection refused"):
        offline.fetch_tx_record("0x" + "22" * 32)  # not cached
    with pytest.raises(RpcUnavailable, match="connection refused"):
        RpcClient("http://node", session=DownNode()).fetch_tx_record(TX)  # no cache


def test_node_down_with_the_hash_cached_under_two_chains_raises(tmp_path):
    RpcClient("http://node", cache_dir=tmp_path, session=FakeNode()).fetch_tx_record(TX)
    (tmp_path / "56").mkdir()
    (tmp_path / "56" / f"{TX}.json").write_bytes((tmp_path / "1" / f"{TX}.json").read_bytes())
    offline = RpcClient("http://node", cache_dir=tmp_path, session=DownNode())
    with pytest.raises(RpcUnavailable, match="connection refused"):
        offline.fetch_tx_record(TX)


def test_unknown_hash_raises_tx_not_found(tmp_path):
    client = RpcClient("http://node", cache_dir=tmp_path, session=FakeNode())
    with pytest.raises(TxNotFound):
        client.fetch_tx_record("0x" + "99" * 32)


@pytest.mark.parametrize("tx_hash", ["0xabc", "0x" + "11" * 31, "0x" + "11" * 33,
                                     "0x" + "zz" * 32, "0x../" + "11" * 30, "11" * 32])
def test_malformed_hash_is_rejected_before_any_request_or_cache_access(
        tmp_path, monkeypatch, tx_hash):
    def no_file_access(*args, **kwargs):
        raise AssertionError("cache touched for a malformed hash")

    node = FakeNode()
    client = RpcClient("http://node", cache_dir=tmp_path / "cache", session=node)
    monkeypatch.setattr(rpc, "read_json", no_file_access)
    monkeypatch.setattr(rpc, "write_json", no_file_access)
    with pytest.raises(MalformedTrace, match="tx hash"):
        client.fetch_tx_record(tx_hash)
    assert node.calls == []
    assert list(tmp_path.iterdir()) == []


def test_hash_is_read_in_any_case(tmp_path):
    node = FakeNode()
    client = RpcClient("http://node", cache_dir=tmp_path, session=node)
    assert client.fetch_tx_record(TX.upper().replace("0X", "0x")).tx_hash == TX
    assert [path.name for path in tmp_path.rglob("*.json")] == [f"{TX}.json"]


def test_node_without_tracer_raises_trace_unsupported(tmp_path):
    client = RpcClient("http://node", cache_dir=tmp_path, session=FakeNode(with_trace=False))
    with pytest.raises(TraceUnsupported):
        client.fetch_tx_record(TX)


def test_transport_failure_raises_rpc_unavailable():
    class DeadSession:
        def post(self, *args, **kwargs):
            raise ConnectionError("refused")

    with pytest.raises(RpcUnavailable):
        RpcClient("http://node", session=DeadSession()).chain_id()


def test_rpc_and_file_ingestion_agree(tmp_path):
    record_rpc = RpcClient("http://node", cache_dir=tmp_path,
                           session=FakeNode()).fetch_tx_record(TX)
    doc = {"tx_hash": TX, "chain_id": 1, "block_number": "0x10",
           "trace": TRACE, "logs": RECEIPT["logs"]}
    record_file = record_from_document(doc)
    assert record_rpc == record_file


class NonJsonResponse:
    """A reply whose body is the UTF-8 bytes of `text`, JSON or not."""

    def __init__(self, text, status_code=200):
        self.content = text.encode()
        self.status_code = status_code


@pytest.mark.parametrize("body", ["<html><body>Please sign in</body></html>",
                                  '["not", "an", "object"]'])
def test_non_json_body_raises_rpc_unavailable_naming_the_status(body):
    class Gateway:  # a proxy page or stray JSON served with status 200
        def post(self, *args, **kwargs):
            return NonJsonResponse(body, 200)

    with pytest.raises(RpcUnavailable, match="HTTP 200"):
        RpcClient("http://node", session=Gateway()).chain_id()


def test_reply_too_deep_to_decode_raises_rpc_unavailable_naming_the_method():
    frame = '{"type":"CALL","from":"%s","to":"%s","input":"0x","calls":[' % (A, B)
    trace = frame * 2000 + "]}" * 2000  # a 2000-frame call chain

    class DeepNode(FakeNode):
        def post(self, url, json=None, timeout=None):
            if json["method"] == "debug_traceTransaction":
                return NonJsonResponse('{"jsonrpc":"2.0","id":3,"result":' + trace + "}")
            return super().post(url, json=json, timeout=timeout)

    client = RpcClient("http://node", session=DeepNode())
    with pytest.raises(RpcUnavailable, match=r"debug_traceTransaction: HTTP 200: invalid JSON "
                                             r"\(maximum recursion depth exceeded"):
        client.fetch_tx_record(TX)


@pytest.mark.parametrize("status", [400, 403, 404, 429])
def test_client_error_status_raises_rpc_unavailable_naming_the_status(status):
    class Refusing:
        def post(self, *args, **kwargs):
            return NonJsonResponse("<html><body>Too Many Requests</body></html>",
                                   status)

    with pytest.raises(RpcUnavailable, match=f"HTTP {status}"):
        RpcClient("http://node", session=Refusing()).chain_id()


class ScriptedNode(FakeNode):
    """FakeNode with one method's reply body replaced."""

    def __init__(self, method, body):
        super().__init__()
        self.method = method
        self.body = body

    def post(self, url, json=None, timeout=None):
        if json["method"] == self.method:
            return FakeResponse(self.body)
        return super().post(url, json=json, timeout=timeout)


@pytest.mark.parametrize("method", ["eth_chainId", "eth_getTransactionReceipt",
                                    "debug_traceTransaction"])
def test_string_error_raises_rpc_unavailable_naming_the_method(method):
    client = RpcClient("http://node", session=ScriptedNode(method, {"error": "rate limited"}))
    with pytest.raises(RpcUnavailable, match=f"{method}: rate limited"):
        client.fetch_tx_record(TX)


@pytest.mark.parametrize("method", ["eth_getTransactionReceipt", "debug_traceTransaction"])
@pytest.mark.parametrize("result", ["0x10", ["not", "an", "object"], 7])
def test_non_object_result_raises_rpc_unavailable_naming_the_method(method, result):
    client = RpcClient("http://node", session=ScriptedNode(method, {"result": result}))
    with pytest.raises(RpcUnavailable, match=f"{method}: result is"):
        client.fetch_tx_record(TX)


@pytest.mark.parametrize("result, chain", [("0x89", 137), (137, 137), ("137", 137)])
def test_chain_id_reads_the_reply_by_the_quantity_rule(result, chain):
    client = RpcClient("http://node", session=ScriptedNode("eth_chainId", {"result": result}))
    assert client.chain_id() == chain


_TOO_DEEP = nest([], 5000)  # deeper than a reply decodes


@pytest.mark.parametrize("result", ["zz", {"id": 1}, None, True, 1.5, " 0x1 ", "-0x5",
                                    _TOO_DEEP])
def test_unparseable_chain_id_raises_rpc_unavailable(result):
    # The reply is read by the ingest quantity rule, but null is no chain id.
    session, why = ScriptedNode("eth_chainId", {"result": result}), "result"
    if result is _TOO_DEEP:  # refused by the decode; sent as text, too deep to encode
        class DeepNode:
            def post(self, *args, **kwargs):
                return NonJsonResponse('{"result":' + "[" * 5000 + "]" * 5000 + "}")

        session, why = DeepNode(), r"HTTP 200: invalid JSON \(maximum recursion depth exceeded"
    with pytest.raises(RpcUnavailable, match=f"eth_chainId: {why}"):
        RpcClient("http://node", session=session).chain_id()


def test_interrupted_cache_write_leaves_no_entry(tmp_path, monkeypatch):
    def write_half(path, doc):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc)[:20])
        raise OSError("disk full")

    client = RpcClient("http://node", cache_dir=tmp_path, session=FakeNode())
    monkeypatch.setattr(rpc, "write_json", write_half)
    with pytest.raises(OSError, match="disk full"):
        client.fetch_tx_record(TX)
    monkeypatch.undo()
    assert list(tmp_path.rglob("*")) == [tmp_path / "1"]  # no entry, no temporary
    assert client.fetch_tx_record(TX).tx_hash == TX


def test_truncated_cache_entry_raises_rpc_unavailable_naming_it(tmp_path):
    RpcClient("http://node", cache_dir=tmp_path, session=FakeNode()).fetch_tx_record(TX)
    (entry,) = tmp_path.rglob("*.json")
    entry.write_text(entry.read_text()[:30])
    offline = RpcClient("http://node", cache_dir=tmp_path, session=FakeNode(known=False))
    with pytest.raises(RpcUnavailable, match=f"{entry.name}: invalid JSON"):
        offline.fetch_tx_record(TX)


def test_cache_entry_is_written_by_the_one_json_writer(tmp_path):
    RpcClient("http://node", cache_dir=tmp_path, session=FakeNode()).fetch_tx_record(TX)
    (entry,) = [path for path in tmp_path.rglob("*") if path.is_file()]
    text = entry.read_text()
    assert text == canonical_json(json.loads(text)) + "\n"
