import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bridgeguard.errors import BridgeGuardError, EmptyTrace, InvalidConfig, MalformedTrace
from bridgeguard.hashing import canonical_json, keccak256
from bridgeguard.ingest import (
    FRAME_KINDS,
    LABELS,
    MAX_CALL_DEPTH,
    ZERO_ADDRESS,
    CallFrame,
    DatasetManifest,
    LogEntry,
    ManifestEntry,
    TxRecord,
    _derived_tx_hash,
    _norm_hex,
    _norm_quantity,
    flatten_frames,
    load_corpus,
    load_manifest,
    load_trace_file,
    read_json,
    record_from_document,
    record_to_document,
    save_manifest,
    write_json,
)
from bridgeguard.rpc import RpcClient
from bridgeguard.xteg import XTEG, build_xteg
from conftest import JSON_JUNK, json_slots, nest, random_trace_doc, validate_record

A = "0x" + "aa" * 20
B = "0x" + "bb" * 20
C = "0x" + "cc" * 20


def _doc(trace, logs=None, **extra):
    doc = {"trace": trace, "logs": logs or []}
    doc.update(extra)
    return doc


def test_nested_children_depths():
    trace = {"type": "CALL", "from": A, "to": B, "input": "0x", "calls": [
        {"type": "CALL", "from": B, "to": C, "input": "0x"},
        {"type": "CALL", "from": B, "to": A, "input": "0x"},
    ]}
    record = record_from_document(_doc(trace))
    frames = flatten_frames(record)
    assert len(frames) == 3
    assert [f.depth for f in frames] == [0, 1, 1]
    validate_record(record)


def test_minimal_root_only():
    record = record_from_document(_doc({"type": "CALL", "from": A, "to": B, "input": "0x"}))
    assert len(flatten_frames(record)) == 1
    assert record.logs == []


def test_selector_extracted_from_token_transfer_calldata(tmp_path):
    # Oracle: first 4 bytes of keccak256 of the canonical signature.
    expected = keccak256(b"transfer(address,uint256)")[:4].hex()
    assert expected == "a9059cbb"
    calldata = "0x" + expected + "00" * 64
    path = tmp_path / "tx.json"
    path.write_text(json.dumps(_doc({"type": "CALL", "from": A, "to": B,
                                     "input": calldata})))
    record = load_trace_file(path)
    assert record.root_frame.selector == expected


def test_selector_absent_for_short_input():
    for short in ("0x", "0xa9", "0xa9059c"):
        record = record_from_document(_doc({"type": "CALL", "from": A, "to": B,
                                            "input": short}))
        assert record.root_frame.selector is None


def test_flatten_order_matches_preorder():
    trace = {"type": "CALL", "from": A, "to": B, "input": "0x", "calls": [
        {"type": "CALL", "from": B, "to": C, "input": "0x", "calls": [
            {"type": "CALL", "from": C, "to": A, "input": "0x"},
        ]},
        {"type": "CALL", "from": B, "to": A, "input": "0x"},
    ]}
    record = record_from_document(_doc(trace))
    frames = flatten_frames(record)
    assert [f.order for f in frames] == [0, 1, 2, 3]


def _count_naive(frame) -> int:
    return 1 + sum(_count_naive(child) for child in frame.children)


def _preorder_naive(frame):
    yield frame
    for child in frame.children:
        yield from _preorder_naive(child)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_flatten_matches_naive_recursion(seed):
    rng = np.random.default_rng(seed)
    record = record_from_document(random_trace_doc(rng, max_frames=200))
    frames = flatten_frames(record)
    assert len(frames) == _count_naive(record.root_frame)
    assert [f.order for f in frames] == [f.order for f in _preorder_naive(record.root_frame)]
    assert [f.order for f in frames] == list(range(len(frames)))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_round_trip_through_disk_format(tmp_path_factory, seed):
    rng = np.random.default_rng(seed)
    record = record_from_document(random_trace_doc(rng, max_frames=60))
    path = tmp_path_factory.mktemp("rt") / "tx.json"
    write_json(path, record_to_document(record))
    assert load_trace_file(path) == record


def test_errors_empty_and_malformed(tmp_path):
    with pytest.raises(EmptyTrace):
        record_from_document({"trace": None, "logs": []})
    with pytest.raises(EmptyTrace):
        record_from_document({"logs": []})
    with pytest.raises(MalformedTrace):
        record_from_document(_doc({"type": "FOO", "from": A, "to": B, "input": "0x"}))
    with pytest.raises(MalformedTrace):
        record_from_document(_doc({"type": "CALL", "from": "nothex", "to": B,
                                   "input": "0x"}))
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(MalformedTrace):
        load_trace_file(path)


@settings(max_examples=500, deadline=None)
@given(body=st.text())
@example(body="")
@example(body="0123456789abcdefABCDEF")
@example(body="\uff10\uff11")  # fullwidth digits
@example(body="\u0660")  # Arabic-Indic digit zero
@example(body="\u212a")  # Kelvin sign, lower-cases to ASCII "k"
@example(body="\u0130")  # dotted capital I, lower-cases to two characters
@example(body="ab\n")
@example(body="ab\x00")
def test_hex_check_equals_the_per_character_loop(body):
    # The loop the regular expression replaced, kept as the oracle.
    lowered = body.lower()
    rejected = bool(lowered) and any(c not in "0123456789abcdef" for c in lowered)
    try:
        normalized = _norm_hex("0x" + body, "input")
    except MalformedTrace:
        assert rejected
    else:
        assert not rejected
        assert normalized == "0x" + lowered


@pytest.mark.parametrize("content", [
    b'{"trace": "\xff"}',
    b'[' * 100_000 + b']' * 100_000,  # nests deeper than the decoder recurses
], ids=["not-utf8", "too-deep"])
def test_undecodable_file_raises_the_given_error_naming_the_path(tmp_path, content):
    path = tmp_path / "tx.json"
    path.write_bytes(content)
    with pytest.raises(MalformedTrace, match="tx.json: invalid JSON"):
        load_trace_file(path)
    with pytest.raises(InvalidConfig, match="tx.json: invalid JSON"):
        read_json(path, InvalidConfig)


def test_call_tree_too_deep_to_parse_raises_malformed_trace():
    # A 2000-frame chain, built in memory: deeper than MAX_CALL_DEPTH.
    root = node = {"type": "CALL", "from": A, "to": B, "input": "0x"}
    for depth in range(1, 2000):
        child = {"type": "CALL", "from": node["to"], "to": (B, C)[depth % 2], "input": "0x"}
        node["calls"] = [child]
        node = child
    with pytest.raises(MalformedTrace, match="call tree nests too deep to parse"):
        record_from_document(_doc(root))


def test_missing_file_raises_os_error(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_json(tmp_path / "missing.json", MalformedTrace)


@pytest.mark.parametrize("logs", [True, 5, 1.5, "0x", {"0": {}}])
def test_logs_that_are_not_a_list_rejected(logs):
    with pytest.raises(MalformedTrace, match="logs"):
        record_from_document(_doc({"type": "CALL", "from": A, "to": B, "input": "0x"},
                                  logs=logs))


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), data=st.data())
def test_any_document_gives_a_graph_or_a_typed_error(seed, data):
    # A valid document with one value, anywhere in it, replaced by any JSON.
    doc = random_trace_doc(np.random.default_rng(seed), max_frames=4)
    container, key = data.draw(st.sampled_from(list(json_slots(doc))))
    container[key] = data.draw(JSON_JUNK)
    try:
        graph = build_xteg(record_from_document(doc))
    except BridgeGuardError:
        return
    assert isinstance(graph, XTEG)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), data=st.data())
def test_any_document_built_in_memory_gives_a_record_or_a_typed_error(seed, data):
    # A valid document with one value, anywhere in it or at an optional
    # top-level key, replaced by any JSON value, which may nest 5000 deep:
    # deeper than a file could decode, as a caller can build it in memory.
    doc = random_trace_doc(np.random.default_rng(seed), max_frames=4)
    slots = list(json_slots(doc)) + [(doc, key) for key in ("tx_hash", "sender",
                                                            "block_number")]
    container, key = data.draw(st.sampled_from(slots))
    container[key] = data.draw(st.builds(nest, JSON_JUNK, st.sampled_from([0, 1, 5000])))
    try:
        record = record_from_document(doc)
    except BridgeGuardError:
        return
    assert isinstance(record, TxRecord)


@pytest.mark.parametrize("key", ["from", "value", "type"])
def test_deep_frame_value_renders_bounded_in_the_error(key):
    trace = {"type": "CALL", "from": A, "to": B, "input": "0x"}
    trace[key] = nest([], 5000)
    with pytest.raises(MalformedTrace, match=re.escape(" [[[[[[[...]]]]]]]")):
        record_from_document(_doc(trace))


# Documents a file cannot hold but a caller can build in memory: ints past
# int()'s 4300-digit limit, a cycle, and a value JSON has no form for.
_IN_MEMORY_DOCUMENTS = {
    "huge-from": lambda trace, logs: trace.update({"from": 10 ** 5000}),
    "huge-value": lambda trace, logs: trace.update({"value": 10 ** 5000}),
    "huge-logIndex": lambda trace, logs: logs[0].update({"logIndex": 10 ** 5000}),
    "huge-duplicate-logIndex": lambda trace, logs: logs.extend(
        [dict(logs[0], logIndex=10 ** 5000), dict(logs[0], logIndex=10 ** 5000)]),
    "cycle": lambda trace, logs: trace.update({"x": trace}),
    "set": lambda trace, logs: trace.update({"x": {1, 2}}),
}


@pytest.mark.parametrize("name", list(_IN_MEMORY_DOCUMENTS))
def test_huge_int_cycle_or_set_built_in_memory_gives_malformed_trace(name):
    trace = {"type": "CALL", "from": A, "to": B, "input": "0x"}
    logs = [{"address": B, "topics": [], "data": "0x", "logIndex": 0}]
    _IN_MEMORY_DOCUMENTS[name](trace, logs)
    with pytest.raises(MalformedTrace):
        record_from_document(_doc(trace, logs))


class _FakeNode:
    """A requests-compatible session answering each JSON-RPC method with the
    body stored for it, sent as JSON bytes."""

    def __init__(self, bodies):
        self.bodies = bodies

    def post(self, url, json=None, timeout=None):
        body = self.bodies[json["method"]]

        class Reply:
            status_code = 200
            content = canonical_json(body).encode()

        return Reply()


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), data=st.data())
def test_any_rpc_reply_gives_a_record_or_a_typed_error(seed, data):
    # Valid chain id, receipt and trace replies with one value, anywhere in
    # them (a whole reply body included), replaced by any JSON.
    doc = random_trace_doc(np.random.default_rng(seed), max_frames=4)
    replies = {
        "eth_chainId": {"jsonrpc": "2.0", "id": 1, "result": "0x1"},
        "eth_getTransactionReceipt": {"jsonrpc": "2.0", "id": 2, "result": {
            "blockNumber": "0x10", "logs": doc["logs"]}},
        "debug_traceTransaction": {"jsonrpc": "2.0", "id": 3, "result": doc["trace"]},
    }
    tx = "0x" + "11" * 32
    intact = RpcClient("http://node.invalid", session=_FakeNode(json.loads(json.dumps(replies))))
    assert len(build_xteg(intact.fetch_tx_record(tx)).vertices) >= 2
    container, key = data.draw(st.sampled_from(list(json_slots(replies))))
    container[key] = data.draw(JSON_JUNK)
    client = RpcClient("http://node.invalid", session=_FakeNode(replies))
    try:
        graph = build_xteg(client.fetch_tx_record(tx))
    except BridgeGuardError:
        return
    assert isinstance(graph, XTEG)


def test_duplicate_log_index_rejected():
    logs = [{"address": B, "topics": [], "data": "0x", "logIndex": 0},
            {"address": C, "topics": [], "data": "0x", "logIndex": 0}]
    with pytest.raises(MalformedTrace):
        record_from_document(_doc({"type": "CALL", "from": A, "to": B,
                                   "input": "0x"}, logs))


def test_selfdestruct_without_beneficiary_uses_zero_address():
    trace = {"type": "CALL", "from": A, "to": B, "input": "0x", "calls": [
        {"type": "SELFDESTRUCT", "from": B, "to": None, "input": "0x"},
    ]}
    record = record_from_document(_doc(trace))
    assert record.root_frame.children[0].callee == "0x" + "00" * 20


def test_reverted_frames_are_flagged_and_kept():
    trace = {"type": "CALL", "from": A, "to": B, "input": "0x", "calls": [
        {"type": "CALL", "from": B, "to": C, "input": "0x", "error": "execution reverted"},
    ]}
    record = record_from_document(_doc(trace))
    assert len(flatten_frames(record)) == 2
    assert record.root_frame.children[0].reverted
    assert not record.root_frame.reverted


def test_manifest_round_trip_and_validation(tmp_path):
    manifest = DatasetManifest(entries=[
        ManifestEntry(source="a.json", label="Normal", chain_id=1),
        ManifestEntry(source="b.json", label="AttackTgt", chain_id=56),
    ])
    path = tmp_path / "manifest.jsonl"
    save_manifest(manifest, path)
    assert load_manifest(path) == manifest

    path.write_text('{"source": "a.json", "label": "Bad", "chain_id": 1}\n')
    with pytest.raises(InvalidConfig):
        load_manifest(path)
    path.write_text('{"source": "a.json", "label": "Normal", "chain_id": 1}\n' * 2)
    with pytest.raises(InvalidConfig):
        load_manifest(path)
    assert set(LABELS) == {"Normal", "AttackSrc", "AttackTgt"}


def test_write_json_is_the_one_file_policy(tmp_path):
    path = tmp_path / "new" / "dir" / "out.json"
    payload = {"b": [1, 2.5], "a": {"z": None, "y": "0x01"}}
    write_json(path, payload)  # creates the parent directories
    assert path.read_text() == canonical_json(payload) + "\n"
    write_json(path, [])  # overwrites
    assert path.read_text() == "[]\n"


def test_load_corpus_resolves_relative_sources_against_the_manifest(tmp_path):
    docs = [_doc({"type": "CALL", "from": A, "to": callee, "input": "0x"})
            for callee in (B, C)]
    (tmp_path / "corpus" / "traces").mkdir(parents=True)
    relative = tmp_path / "corpus" / "traces" / "one.json"
    absolute = tmp_path / "elsewhere.json"
    relative.write_text(json.dumps(docs[0]))
    absolute.write_text(json.dumps(docs[1]))
    manifest = tmp_path / "corpus" / "manifest.jsonl"
    save_manifest(DatasetManifest([
        ManifestEntry(source="traces/one.json", label="Normal", chain_id=1),
        ManifestEntry(source=str(absolute), label="AttackTgt", chain_id=56)]), manifest)
    records, labels = load_corpus(manifest)
    assert labels == ["Normal", "AttackTgt"]
    assert records == [record_from_document(docs[0], chain_id=1),
                       record_from_document(docs[1], chain_id=56)]
    assert [r.chain_id for r in records] == [1, 56]


# --- the iterative parser against the recursive one ------------------------
#
# The recursive descent the parser replaced, kept as its oracle: each hex
# field through `_norm_hex`, each quantity through `_norm_quantity`.


def _oracle_frame(node, depth, counter):
    if not isinstance(node, dict):
        raise MalformedTrace(f"frame at depth {depth} is not an object")
    kind = node.get("type")
    if not isinstance(kind, str) or kind.upper() not in FRAME_KINDS:
        raise MalformedTrace(f"unknown frame type {kind!r} at depth {depth}")
    caller = _norm_hex(node.get("from"), "from", nbytes=20)
    to = node.get("to")
    callee = ZERO_ADDRESS if to in (None, "") else _norm_hex(to, "to", nbytes=20)
    raw_input = node.get("input", "0x")
    input_hex = _norm_hex(raw_input, "input") if raw_input is not None else "0x"
    order = counter[0]
    counter[0] += 1
    frame = CallFrame(
        frame_kind=kind.upper(), caller=caller, callee=callee,
        selector=input_hex[2:10] if len(input_hex) >= 10 else None,
        value=_norm_quantity(node.get("value"), "value"), depth=depth, order=order,
        reverted=bool(node.get("error") or node.get("revertReason")))
    calls = node.get("calls") or []
    if not isinstance(calls, list):
        raise MalformedTrace("`calls` must be a list")
    frame.children = [_oracle_frame(child, depth + 1, counter) for child in calls]
    return frame


def _oracle_log(entry, position):
    if not isinstance(entry, dict):
        raise MalformedTrace(f"log #{position} is not an object")
    topics = entry.get("topics", [])
    if not isinstance(topics, list):
        raise MalformedTrace(f"log #{position}: topics must be a list")
    norm_topics = [_norm_hex(t, "topic", nbytes=32) for t in topics]
    data = entry.get("data", "0x")
    return LogEntry(
        emitter=_norm_hex(entry.get("address"), "log address", nbytes=20),
        topic0=norm_topics[0] if norm_topics else None,
        topics_rest=norm_topics[1:],
        data=_norm_hex(data, "log data") if data is not None else "0x",
        log_index=_norm_quantity(entry.get("logIndex", position), "logIndex"),
    )


def _oracle_record(doc):
    if not isinstance(doc, dict):
        raise MalformedTrace("document is not a JSON object")
    trace = doc.get("trace")
    if trace is None or trace == {}:
        raise EmptyTrace("document has no root frame")
    root = _oracle_frame(trace, 0, [0])
    raw_logs = doc.get("logs") or []
    if not isinstance(raw_logs, list):
        raise MalformedTrace("`logs` must be a list")
    logs = [_oracle_log(entry, i) for i, entry in enumerate(raw_logs)]
    seen = set()
    for log in logs:
        if log.log_index in seen:
            raise MalformedTrace(f"duplicate logIndex {log.log_index}")
        seen.add(log.log_index)
    logs.sort(key=lambda log: log.log_index)
    sender = doc.get("sender")
    sender = _norm_hex(sender, "sender", nbytes=20) if sender is not None else root.caller
    if sender != root.caller:
        raise MalformedTrace("sender does not match root frame caller")
    tx_hash = doc.get("tx_hash")
    tx_hash = _norm_hex(tx_hash, "tx_hash", nbytes=32) if tx_hash else _derived_tx_hash(doc)
    return TxRecord(tx_hash=tx_hash,
                    chain_id=_norm_quantity(doc.get("chain_id", 0), "chain_id"),
                    root_frame=root, logs=logs,
                    block_number=_norm_quantity(doc.get("block_number"), "block_number"),
                    sender=sender)


def _oracle_frame_to_node(frame):
    node = {"type": frame.frame_kind, "from": frame.caller, "to": frame.callee,
            "input": "0x" + frame.selector if frame.selector else "0x",
            "value": hex(frame.value)}
    if frame.reverted:
        node["error"] = "execution reverted"
    if frame.children:
        node["calls"] = [_oracle_frame_to_node(child) for child in frame.children]
    return node


def _outcome(parse, doc):
    try:
        return parse(doc)
    except BridgeGuardError as exc:
        return type(exc), str(exc)


_HEX_KEYS = {"from", "to", "input", "address", "data", "sender", "tx_hash"}
_QUANTITY_KEYS = {"value", "logIndex", "chain_id", "block_number"}
# Characters that look like hex digits, or lower-case to ASCII, and are not.
_LOOKALIKES = ["\uff10", "\uff41", "\u212a", "\u0660", "\u0130", "\u0391", "g", " "]


@st.composite
def _hex_variant(draw, value):
    """`value` in mixed case, then maybe with a look-alike character, a
    changed prefix or length, or replaced by a non-string."""
    body = value[2:]
    mask = draw(st.integers(min_value=0, max_value=2 ** len(body) - 1))
    body = "".join(c.upper() if mask >> i & 1 else c for i, c in enumerate(body))
    how = draw(st.sampled_from(["case", "case", "lookalike", "prefix", "short", "other"]))
    if how == "lookalike":
        at = draw(st.integers(min_value=0, max_value=len(body)))
        body = body[:at] + draw(st.sampled_from(_LOOKALIKES)) + body[at + 1:]
    elif how == "prefix":
        return draw(st.sampled_from(["0X", "", "x", "00"])) + body
    elif how == "short":
        body = body[:-1]
    elif how == "other":
        return draw(st.sampled_from([None, "", 7, True, 1.5, [], {}]))
    return "0x" + body


_QUANTITY = st.sampled_from([True, False, 0, 3, -1, 2 ** 70, "0x1F", "0X1F", "0xzz",
                             "12", "", 1.5, None, []])
_FRAME_TYPE = st.sampled_from(["call", "Call", "STATICCALL", "create2", "JUMP", "", 3])


def _typed_slots(doc):
    """(container, key, kind) of every hex, quantity and frame-type value."""
    slots = []
    for container, key in json_slots(doc):
        value = container[key]
        if key in _HEX_KEYS or (isinstance(container, list) and isinstance(value, str)):
            slots.append((container, key, "hex"))
        elif key in _QUANTITY_KEYS:
            slots.append((container, key, "quantity"))
        elif key == "type":
            slots.append((container, key, "type"))
    return slots


def _assert_parses_like_the_oracle(doc):
    expected = _outcome(_oracle_record, doc)
    assert _outcome(record_from_document, doc) == expected
    if isinstance(expected, TxRecord):
        assert record_to_document(expected)["trace"] == _oracle_frame_to_node(
            expected.root_frame)


def _small_document():
    trace = {"type": "CALL", "from": A, "to": B, "input": "0xa9059cbb" + "00" * 4,
             "value": "0x10", "calls": [
                 {"type": "DELEGATECALL", "from": B, "to": C, "input": "0x", "value": 0},
                 {"type": "CREATE", "from": B, "to": A, "input": "0x60", "value": "5"}]}
    logs = [{"address": B, "topics": ["0x" + "12" * 32, "0x" + "ef" * 32],
             "data": "0x00ff", "logIndex": 1},
            {"address": C, "topics": [], "data": "0x", "logIndex": "0x0"}]
    return _doc(trace, logs, sender=A, tx_hash="0x" + "ab" * 32, block_number="0x10",
                chain_id=1)


_BAD = {"hex": "0x0g", "quantity": "0xzz", "type": "JUMP"}


def test_first_error_of_any_two_bad_values_is_the_recursive_parsers():
    n = len(_typed_slots(_small_document()))
    for i in range(n):
        for j in range(i, n):
            doc = _small_document()
            slots = _typed_slots(doc)
            for container, key, kind in (slots[i], slots[j]):
                container[key] = _BAD[kind]
            _assert_parses_like_the_oracle(doc)


_TRICKY = {
    "hex": ["0x" + "Ab" * 20, "0x" + "aB" * 32, "0X" + "ab" * 20, "0x" + "ab" * 19 + "\uff41b",
            "0x" + "ab" * 19 + "\u212a0", "0x" + "\u0660" * 40, "0x\u0130", "0xAB\n",
            "0x" + "ab" * 20 + "\n", "0x", None, "", 5, True],
    "quantity": [True, False, 0, 2 ** 70, -3, "0x1F", "0X1F", "12", "\uff11", 1.5, None],
    "type": ["call", "Call", "selfdestruct", "JUMP", "", None, 3, ["CALL"], {"CALL": 1}],
}


def test_every_field_parses_tricky_values_like_the_recursive_parser():
    n = len(_typed_slots(_small_document()))
    for i in range(n):
        kind = _typed_slots(_small_document())[i][2]
        for value in _TRICKY[kind]:
            doc = _small_document()
            container, key, _ = _typed_slots(doc)[i]
            container[key] = value
            _assert_parses_like_the_oracle(doc)


@settings(max_examples=400, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), data=st.data())
def test_iterative_parser_equals_the_recursive_one(seed, data):
    doc = random_trace_doc(np.random.default_rng(seed), max_frames=12)
    if data.draw(st.booleans()):
        doc.update(sender=doc["trace"]["from"], tx_hash="0x" + "ab" * 32,
                   block_number="0x10")
    slots = _typed_slots(doc)
    for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
        container, key, kind = data.draw(st.sampled_from(slots))
        value = container[key]
        if kind == "hex" and isinstance(value, str) and value.startswith("0x"):
            container[key] = data.draw(_hex_variant(value))
        elif kind == "quantity":
            container[key] = data.draw(_QUANTITY)
        elif kind == "type":
            container[key] = data.draw(_FRAME_TYPE)
    _assert_parses_like_the_oracle(doc)


def _chain_document(deepest: int) -> dict:
    """A one-frame-per-depth call chain down to depth `deepest`, with a
    tx_hash, so no hash is derived from its (deep) JSON."""
    root = node = {"type": "CALL", "from": A, "to": B, "input": "0xa9059cbb00",
                   "value": "0x1"}
    for depth in range(1, deepest + 1):
        child = {"type": "CALL", "from": node["to"], "to": (B, C)[depth % 2],
                 "input": "0x", "value": depth}
        if depth % 7 == 0:
            child["error"] = "execution reverted"
        node["calls"] = [child]
        node = child
    return _doc(root, tx_hash="0x" + "cd" * 32)


def _frame_fields(record):
    """Every frame's fields but its children, in pre-order: `CallFrame ==`
    recurses, so deep records are compared through this."""
    return [(f.frame_kind, f.caller, f.callee, f.selector, f.value, f.depth, f.order,
             f.reverted, len(f.children)) for f in flatten_frames(record)]


def test_frames_down_to_the_evm_call_depth_limit_parse():
    record = record_from_document(_chain_document(MAX_CALL_DEPTH))
    frames = flatten_frames(record)
    assert MAX_CALL_DEPTH == 1024
    assert [f.depth for f in frames] == list(range(MAX_CALL_DEPTH + 1))
    validate_record(record)
    with pytest.raises(MalformedTrace, match="call tree nests too deep to parse"):
        record_from_document(_chain_document(MAX_CALL_DEPTH + 1))


def test_deepest_accepted_record_writes_back():
    record = record_from_document(_chain_document(MAX_CALL_DEPTH))
    again = record_from_document(record_to_document(record))
    assert _frame_fields(again) == _frame_fields(record)
    assert (again.tx_hash, again.logs, again.sender) == (record.tx_hash, record.logs,
                                                         record.sender)


def test_deepest_chain_without_tx_hash_is_too_deep_to_hash():
    # The derived tx hash takes the document's canonical JSON, whose encoder
    # recurses; the deepest chain the parser accepts nests deeper than that.
    doc = _chain_document(MAX_CALL_DEPTH)
    del doc["tx_hash"]
    with pytest.raises(MalformedTrace, match="nests too deep"):
        record_from_document(doc)


def test_record_too_deep_to_encode_raises_malformed_trace(tmp_path):
    # The JSON encoder recurses once per nesting level; the parser does not.
    record = record_from_document(_chain_document(MAX_CALL_DEPTH))
    path = tmp_path / "deep.json"
    with pytest.raises(MalformedTrace, match="nests too deep to write"):
        write_json(path, record_to_document(record))
    assert not path.exists()


# --- the hex and quantity rules, on their own ---------------------------------


def _slow_norm_hex(value, name, nbytes):
    """The rule `_norm_hex` shortcuts with one whole-value match, written out
    check by check."""
    if not isinstance(value, str) or not value.startswith("0x"):
        raise MalformedTrace(f"{name}: expected 0x-prefixed hex string, got {value!r}")
    body = value[2:].lower()
    if any(c not in "0123456789abcdef" for c in body):
        raise MalformedTrace(f"{name}: non-hex characters in {value!r}")
    if nbytes is not None and len(body) != 2 * nbytes:
        raise MalformedTrace(f"{name}: expected {nbytes} bytes, got {value!r}")
    return "0x" + body


def _hex_outcome(norm, value, nbytes):
    try:
        return norm(value, "field", nbytes)
    except BridgeGuardError as exc:
        return type(exc), str(exc)


# Values of 20 and 32 bytes, one byte either side of each, and other lengths.
_HEX_SEEDS = ["0x" + "ab" * n for n in (19, 20, 21, 31, 32, 33)] + ["0xa9059cbb00", "0x"]


@settings(max_examples=400, deadline=None)
@given(value=st.one_of(st.sampled_from(_TRICKY["hex"]),
                       st.sampled_from(_HEX_SEEDS).flatmap(_hex_variant)),
       nbytes=st.sampled_from([None, 20, 32]))
def test_hex_shortcut_equals_the_slow_rule(value, nbytes):
    assert (_hex_outcome(_norm_hex, value, nbytes)
            == _hex_outcome(_slow_norm_hex, value, nbytes))


_ACCEPTED_QUANTITIES = {None: 0, 0: 0, 7: 7, 2 ** 70: 2 ** 70, "0x1F": 31, "0x1f": 31,
                        "0x0": 0, "12": 12, "0": 0, "007": 7}
_REJECTED_QUANTITIES = [True, False, -5, -1, 1.5, "\uff11", "\u0663", "0x\uff11F",
                        "1_000", " 12 ", "+5", "-5", "-0x5", "0X1F", "0x", "", "12\n", [],
                        "9" * 5000]  # past int()'s decimal digit limit


def _quantity_slots(doc):
    return [(container, key) for container, key, kind in _typed_slots(doc)
            if kind == "quantity"]


def _quantity_document():
    """One frame, one log, and every quantity field set."""
    return _doc({"type": "CALL", "from": A, "to": B, "input": "0x", "value": 1},
                [{"address": B, "topics": [], "data": "0x", "logIndex": 2}],
                chain_id=1, block_number=3)


def test_quantities_accept_exactly_non_negative_ints_and_ascii_digit_strings():
    for value, number in _ACCEPTED_QUANTITIES.items():
        assert _norm_quantity(value, "value") == number
    for i in range(len(_quantity_slots(_quantity_document()))):
        for value in _ACCEPTED_QUANTITIES:
            doc = _quantity_document()
            container, key = _quantity_slots(doc)[i]
            container[key] = value
            record = record_from_document(doc)
            assert record_from_document(record_to_document(record)) == record
        for value in _REJECTED_QUANTITIES:
            doc = _quantity_document()
            container, key = _quantity_slots(doc)[i]
            container[key] = value
            with pytest.raises(MalformedTrace, match=f"^{key}: .*{re.escape(repr(value))}$"):
                record_from_document(doc)


def test_manifest_chain_id_accepts_only_quantities(tmp_path):
    path = tmp_path / "manifest.jsonl"
    for value, number in _ACCEPTED_QUANTITIES.items():
        path.write_text(json.dumps({"source": "a.json", "label": "Normal", "chain_id": value}))
        assert load_manifest(path).entries[0].chain_id == number
    for value in _REJECTED_QUANTITIES:
        path.write_text(json.dumps({"source": "a.json", "label": "Normal", "chain_id": value}))
        with pytest.raises(InvalidConfig, match="chain_id"):
            load_manifest(path)


def test_derived_tx_hash_is_pinned_and_independent_of_key_order():
    trace = {"type": "CALL", "from": A, "to": B, "input": "0x", "value": 5}
    logs = [{"address": B, "topics": [], "data": "0x", "logIndex": 0}]
    pinned = "0xb2bdd8d93d704f70884edcdc4cc1b6f7f7cf6bcc37183757fd218bc9956278a9"
    assert record_from_document(_doc(trace, logs)).tx_hash == pinned
    reordered = {"logs": [dict(reversed(logs[0].items()))],
                 "trace": dict(reversed(trace.items()))}
    assert record_from_document(reordered).tx_hash == pinned
