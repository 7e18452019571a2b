import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bridgeguard.errors import DisconnectedGraph, EmptyTrace
from bridgeguard.ingest import CallFrame, flatten_frames, record_from_document
from bridgeguard.motifs import local_feature, triad_census_bruteforce
from bridgeguard.synthgen import gen_attack_tgt, gen_normal_deposit
from bridgeguard.xteg import (
    ANONYMOUS,
    EMIT,
    EOA,
    EVENT,
    FALLBACK,
    FUNCTION,
    XTEG,
    Vertex,
    XtegEdge,
    build_xteg,
    dump_xteg,
)
from conftest import random_record, random_trace_doc, xteg_adjacency

A = "0x" + "aa" * 20
B = "0x" + "bb" * 20


def test_normal_deposit_structure():
    # Full deposit chain: EOA -> router.deposit -> token.transferFrom -> vault,
    # with lock + deposit emissions: 6 vertices, CALLx3 + EMITx2.
    graph = build_xteg(gen_normal_deposit(seed=1).record)
    assert len(graph.vertices) == 6
    kinds = sorted(e.kind for e in graph.edges)
    assert kinds == ["CALL", "CALL", "CALL", "EMIT", "EMIT"]
    assert all(e.multiplicity == 1 for e in graph.edges)


def test_minimal_single_call():
    record = record_from_document(
        {"trace": {"type": "CALL", "from": A, "to": B, "input": "0x"}, "logs": []})
    graph = build_xteg(record)
    assert len(graph.vertices) == 2
    assert len(graph.edges) == 1
    assert graph.edges[0].kind == "CALL"
    assert graph.vertices[0].kind == EOA


def test_target_attack_contains_create_and_selfdestruct_on_same_vertex():
    graph = build_xteg(gen_attack_tgt(seed=2).record)
    create = [e for e in graph.edges if e.kind == "CREATE"]
    destruct = [e for e in graph.edges if e.kind == "SELFDESTRUCT"]
    assert len(create) == 1 and len(destruct) == 1
    assert create[0].dst == destruct[0].src  # the created attack contract


def test_vertex_identity_merges_repeat_calls():
    # Two calls to the same (address, selector) collapse into one vertex,
    # and the parallel edges merge with multiplicity 2.
    trace = {"type": "CALL", "from": A, "to": B, "input": "0xdeadbeef", "calls": [
        {"type": "CALL", "from": B, "to": B, "input": "0xdeadbeef"},
    ]}
    record = record_from_document({"trace": trace, "logs": []})
    graph = build_xteg(record)
    assert len(graph.vertices) == 2
    loops = [e for e in graph.edges if e.src == e.dst]
    assert len(loops) == 1 and loops[0].multiplicity == 1


def test_sender_address_is_always_the_eoa_vertex():
    # A call back to the sender maps onto the existing EOA vertex.
    trace = {"type": "CALL", "from": A, "to": B, "input": "0x", "calls": [
        {"type": "CALL", "from": B, "to": A, "input": "0x", "value": "0x1"},
    ]}
    graph = build_xteg(record_from_document({"trace": trace, "logs": []}))
    assert len(graph.vertices) == 2
    kinds = {v.kind for v in graph.vertices}
    assert kinds == {EOA, FUNCTION}
    addresses = [v.address for v in graph.vertices if v.kind == EOA]
    assert addresses == [A]


def test_degenerate_self_send_rejected():
    record = record_from_document(
        {"trace": {"type": "CALL", "from": A, "to": A, "input": "0x", "value": "0x1"},
         "logs": []})
    with pytest.raises(DisconnectedGraph):
        build_xteg(record)


def test_determinism_and_first_appearance_ids(rng):
    for _ in range(25):
        record = random_record(rng)
        g1 = build_xteg(record)
        g2 = build_xteg(record)
        assert g1 == g2
        assert [v.id for v in g1.vertices] == list(range(len(g1.vertices)))


def test_premerge_edge_count_identity(rng):
    # multiplicity-weighted edge count = (frames - 1 root excluded... the root
    # frame itself contributes one edge) + logs: frames + logs in total.
    for _ in range(25):
        record = random_record(rng)
        graph = build_xteg(record)
        total = sum(e.multiplicity for e in graph.edges)
        assert total == len(flatten_frames(record)) + len(record.logs)


def test_log_event_vertices_are_sinks(rng):
    for _ in range(25):
        record = random_record(rng)
        graph = build_xteg(record)
        for v in graph.vertices:
            if v.kind != EVENT:
                continue
            assert all(e.src != v.id for e in graph.edges)
            assert any(e.dst == v.id and e.kind == EMIT for e in graph.edges)


def test_emit_edges_terminate_only_at_event_vertices(rng):
    for _ in range(25):
        record = random_record(rng)
        graph = build_xteg(record)
        for e in graph.edges:
            dst_kind = graph.vertices[e.dst].kind
            assert (e.kind == EMIT) == (dst_kind == EVENT)


def test_edge_order_reflects_execution_sequence():
    deposit = gen_normal_deposit(seed=5).record
    graph = build_xteg(deposit)
    orders = [e.order for e in graph.edges]
    assert orders == sorted(orders) == list(range(len(graph.edges)))
    # Lock (log_index 0, emitted by the token frame) must come after the
    # token call edge; Deposit (log_index 1) must come after Lock.
    by_order = {e.order: e for e in graph.edges}
    emits = sorted(e.order for e in graph.edges if e.kind == EMIT)
    token_edge = next(e for e in graph.edges
                      if e.kind == "CALL" and e.dst == by_order[emits[0]].src)
    assert emits[0] > token_edge.order
    assert emits[1] > emits[0]


def test_local_feature_equals_bruteforce_on_the_deduplicated_adjacency(rng):
    for _ in range(30):
        graph = build_xteg(random_record(rng))
        expected = triad_census_bruteforce(xteg_adjacency(graph)).counts
        assert local_feature(graph).counts == expected


def test_local_feature_drops_self_loops_and_merges_parallel_edges():
    # B calls itself (a self-loop) and C twice (parallel CALL edges, merged
    # into one of multiplicity 2), and the transfer leg B -> C also runs as
    # a STATICCALL (a parallel edge of another kind).
    c = "0x" + "cc" * 20
    trace = {"type": "CALL", "from": A, "to": B, "input": "0xdeadbeef", "calls": [
        {"type": "CALL", "from": B, "to": B, "input": "0xdeadbeef"},
        {"type": "CALL", "from": B, "to": c, "input": "0x"},
        {"type": "CALL", "from": B, "to": c, "input": "0x"},
        {"type": "STATICCALL", "from": B, "to": c, "input": "0x"},
    ]}
    graph = build_xteg(record_from_document({"trace": trace, "logs": []}))
    assert any(e.src == e.dst for e in graph.edges)
    assert [e.multiplicity for e in graph.edges if e.kind == "CALL" and e.src == 1
            and e.dst == 2] == [2]
    expected = np.zeros((3, 3), dtype=np.int64)
    expected[0, 1] = expected[1, 2] = 1
    assert local_feature(graph).counts == triad_census_bruteforce(expected).counts


def test_reciprocal_arcs_survive_simplification():
    # B calls back the sender and emits a log: A <-> B plus B -> event.
    trace = {"type": "CALL", "from": A, "to": B, "input": "0xdeadbeef", "calls": [
        {"type": "CALL", "from": B, "to": A, "input": "0x", "value": "0x1"},
    ]}
    logs = [{"address": B, "topics": ["0x" + "22" * 32], "data": "0x", "logIndex": 0}]
    graph = build_xteg(record_from_document({"trace": trace, "logs": logs}))
    mutual = np.zeros((3, 3), dtype=np.int64)
    mutual[0, 1] = mutual[1, 0] = mutual[1, 2] = 1
    one_way = mutual.copy()
    one_way[1, 0] = 0
    census = local_feature(graph).counts
    assert census == triad_census_bruteforce(mutual).counts
    assert census != triad_census_bruteforce(one_way).counts


def test_dump_contains_vertices_and_edges():
    graph = build_xteg(gen_normal_deposit(seed=9).record)
    text = dump_xteg(graph)
    assert text.count("\nv ") + text.startswith("v ") == len(graph.vertices)
    assert text.count("\ne ") == len(graph.edges)
    assert "EMIT" in text


# --- the one-walk build against the scan-per-log build it replaced ------------


class _VertexInterner:
    def __init__(self) -> None:
        self.by_key: dict[tuple[str, str, str], int] = {}
        self.vertices: list[Vertex] = []

    def intern(self, kind: str, address: str, detail: str) -> int:
        key = (kind, address, detail)
        vid = self.by_key.get(key)
        if vid is None:
            vid = len(self.vertices)
            self.by_key[key] = vid
            self.vertices.append(Vertex(id=vid, kind=kind, address=address, detail=detail))
        return vid


def _frame_vertex(interner: _VertexInterner, frame: CallFrame, sender: str) -> int:
    if frame.callee == sender:
        return interner.intern(EOA, sender, "")
    return interner.intern(FUNCTION, frame.callee, frame.selector or FALLBACK)


def _attribute_log_frame(frames: list[CallFrame], emitter: str) -> CallFrame:
    # Deepest frame whose callee is the emitter, earliest in pre-order;
    # root as the deterministic fallback when no frame matches.
    best: CallFrame | None = None
    for frame in frames:
        if frame.callee == emitter:
            if best is None or frame.depth > best.depth:
                best = frame
    return best if best is not None else frames[0]


def _weak_components(n: int, arcs) -> int:
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for src, dst in arcs:
        ra, rb = find(src), find(dst)
        if ra != rb:
            parent[ra] = rb
    return len({find(i) for i in range(n)})


def oracle_build_xteg(record) -> XTEG:
    """The O(frames x logs) build: a parent map, a frame scan per log and a
    union-find connectivity check."""
    frames = flatten_frames(record)
    interner = _VertexInterner()
    sender_vid = interner.intern(EOA, record.sender, "")
    frame_vid = {frame.order: _frame_vertex(interner, frame, record.sender) for frame in frames}
    parent_of = {child.order: frame for frame in frames for child in frame.children}
    raw = []
    for frame in frames:
        parent = parent_of.get(frame.order)
        src = sender_vid if parent is None else frame_vid[parent.order]
        raw.append(((frame.order, 0, 0), src, frame_vid[frame.order], frame.frame_kind))
    emit_time = 0
    for log in record.logs:
        host = _attribute_log_frame(frames, log.emitter)
        emit_time = max(emit_time, host.order)
        dst = interner.intern(EVENT, log.emitter, log.topic0 or ANONYMOUS)
        raw.append(((emit_time, 1, log.log_index), frame_vid[host.order], dst, EMIT))
    raw.sort(key=lambda item: item[0])
    edges, merged = [], {}
    for order, (_, src, dst, kind) in enumerate(raw):
        if (src, dst, kind) in merged:
            merged[src, dst, kind].multiplicity += 1
        else:
            merged[src, dst, kind] = XtegEdge(src=src, dst=dst, kind=kind, order=order)
            edges.append(merged[src, dst, kind])
    graph = XTEG(tx_hash=record.tx_hash, vertices=interner.vertices, edges=edges)
    n = len(graph.vertices)
    if n < 2:
        raise DisconnectedGraph(f"{graph.tx_hash}: graph has {n} vertex(es), need >= 2")
    components = _weak_components(n, ((e.src, e.dst) for e in graph.edges))
    if components != 1:
        raise DisconnectedGraph(f"{graph.tx_hash}: {components} weak components")
    return graph


def _addr(i: int) -> str:
    return "0x" + format(i, "040x")


def _topic(i: int) -> str:
    return "0x" + format(i, "064x")


def _log(emitter: str, index: int, topic: int | None = 1) -> dict:
    return {"address": emitter, "topics": [] if topic is None else [_topic(topic)],
            "data": "0x", "logIndex": index}


def _call(to: str, selector: str = "", calls=()) -> dict:
    return {"type": "CALL", "from": _addr(0xfe), "to": to, "input": "0x" + selector,
            "calls": list(calls)}


def _random_doc_with_many_logs(rng: np.random.Generator) -> dict:
    doc = random_trace_doc(rng, max_frames=30, with_logs=False)
    callees, stack = [], [doc["trace"]]
    while stack:
        node = stack.pop()
        callees.append(node["to"])
        stack.extend(node["calls"])
    unseen = [_addr(int(rng.integers(1, 1 << 62))) for _ in range(3)]
    emitters = callees + unseen + [doc["trace"]["from"]]
    doc["logs"] = [_log(emitters[int(rng.integers(len(emitters)))], i,
                        None if rng.random() < 0.1 else int(rng.integers(1, 4)))
                   for i in range(int(rng.integers(0, 41)))]
    return doc


def _assert_same_build(doc: dict) -> None:
    record = record_from_document(doc)
    try:
        expected = oracle_build_xteg(record)
    except DisconnectedGraph as exc:
        with pytest.raises(DisconnectedGraph, match=f"^{re.escape(str(exc))}$"):
            build_xteg(record)
        return
    graph = build_xteg(record)
    assert [(v.id, v.key) for v in graph.vertices] == [(v.id, v.key) for v in expected.vertices]
    assert [(e.src, e.dst, e.kind, e.order, e.multiplicity) for e in graph.edges] == [
        (e.src, e.dst, e.kind, e.order, e.multiplicity) for e in expected.edges]


def test_build_equals_the_scan_per_log_oracle_on_random_traces(rng):
    for _ in range(300):
        _assert_same_build(_random_doc_with_many_logs(rng))


S = _addr(0x5e)  # sender
C, D, E = _addr(0xc), _addr(0xd), _addr(0xe)


@pytest.mark.parametrize("doc", [
    # D entered at depths 1 and 2: its logs hang off the depth-2 frame
    {"trace": {**_call(C, calls=[_call(D, "aaaaaaaa"), _call(E, calls=[_call(D, "bbbbbbbb")])]),
               "from": S}, "logs": [_log(D, 0), _log(D, 1, topic=2)]},
    # two frames enter D at the maximum depth: the earlier one hosts
    {"trace": {**_call(C, calls=[_call(E, calls=[_call(D, "aaaaaaaa")]),
                                 _call(E, "cccccccc", calls=[_call(D, "bbbbbbbb")])]),
               "from": S}, "logs": [_log(D, 0)]},
    # ... also when both frames share one vertex: the host's order still decides
    {"trace": {**_call(C, calls=[_call(D, "aaaaaaaa"), _call(E), _call(D, "aaaaaaaa")]),
               "from": S}, "logs": [_log(E, 0), _log(D, 1)]},
    # no frame enters the emitter: the root hosts its log
    {"trace": {**_call(C, calls=[_call(D)]), "from": S}, "logs": [_log(E, 0, topic=None)]},
    # a later log's host precedes an earlier log's host: emit_time stays put
    {"trace": {**_call(C, calls=[_call(D), _call(E)]), "from": S},
     "logs": [_log(E, 0), _log(D, 1), _log(C, 2)]},
    # a root self-send with logs builds from the sender and its events
    {"trace": {**_call(S), "from": S}, "logs": [_log(S, 0), _log(C, 1)]},
    # and without logs it is one vertex: DisconnectedGraph
    {"trace": {**_call(S), "from": S}, "logs": []},
], ids=["emitter-at-two-depths", "equal-depth-earliest-wins", "equal-depth-same-vertex",
        "root-fallback", "emit-time-max", "self-send-with-logs", "self-send-without-logs"])
def test_build_equals_the_scan_per_log_oracle_on_edge_cases(doc):
    _assert_same_build(doc)


def test_log_host_rule_on_explicit_trace():
    # root C -> [D(aa) at depth 1, E -> D(bb) at depth 2, E -> D(cc) at depth 2]
    doc = {"trace": {**_call(C, calls=[
        _call(D, "aaaaaaaa"),
        _call(E, calls=[_call(D, "bbbbbbbb")]),
        _call(E, calls=[_call(D, "cccccccc")]),
    ]), "from": S}, "logs": [_log(D, 0), _log(S, 1)]}
    graph = build_xteg(record_from_document(doc))
    key_of = {v.id: v.key for v in graph.vertices}
    emits = [(key_of[e.src], key_of[e.dst]) for e in graph.edges if e.kind == EMIT]
    assert emits == [((FUNCTION, D, "bbbbbbbb"), (EVENT, D, _topic(1))),
                     ((FUNCTION, C, "fallback"), (EVENT, S, _topic(1)))]
    # the root-hosted log keeps its place after the depth-2 host's log
    orders = {(key_of[e.src], e.kind): e.order for e in graph.edges}
    assert orders[(FUNCTION, C, "fallback"), EMIT] > orders[(FUNCTION, D, "bbbbbbbb"), EMIT]


def test_every_built_graph_is_weakly_connected(rng):
    for _ in range(200):
        graph = build_xteg(record_from_document(_random_doc_with_many_logs(rng)))
        arcs = [(e.src, e.dst) for e in graph.edges]
        assert _weak_components(len(graph.vertices), arcs) == 1


def test_build_of_20000_frames_and_logs_within_budget(rng):
    n = 20_000
    nodes = [_call(_addr(int(rng.integers(1, 2000))), "a9059cbb")]
    for _ in range(n - 1):  # a random recursive tree: depth O(log n)
        child = _call(_addr(int(rng.integers(1, 2000))), "a9059cbb")
        nodes[int(rng.integers(len(nodes)))]["calls"].append(child)
        nodes.append(child)
    emitters = [node["to"] for node in nodes]
    logs = [_log(emitters[int(rng.integers(n))], i) for i in range(n)]
    record = record_from_document({"trace": {**nodes[0], "from": S}, "logs": logs})
    start = time.perf_counter()
    graph = build_xteg(record)
    elapsed = time.perf_counter() - start
    assert sum(e.multiplicity for e in graph.edges) == 2 * n
    assert elapsed < 5.0


# --- the build against the plain build it replaced -----------------------------


def plain_build_xteg(record) -> XTEG:
    """The one-walk build with an interner object, keyword-built records and
    a keyed stable sort of nested raw-edge tuples."""
    if record.root_frame is None:
        raise EmptyTrace(record.tx_hash)
    interner = _VertexInterner()
    raw = []
    host = {}
    stack = [(record.root_frame, interner.intern(EOA, record.sender, ""))]
    while stack:
        frame, parent_vid = stack.pop()
        vid = _frame_vertex(interner, frame, record.sender)
        raw.append(((frame.order, 0, 0), parent_vid, vid, frame.frame_kind))
        best = host.get(frame.callee)
        if best is None or frame.depth > best[0]:
            host[frame.callee] = (frame.depth, frame.order, vid)
        stack.extend((child, vid) for child in reversed(frame.children))
    root_host = (0, record.root_frame.order, raw[0][2])
    emit_time = 0
    for log in record.logs:
        _, host_order, src = host.get(log.emitter, root_host)
        emit_time = max(emit_time, host_order)
        dst = interner.intern(EVENT, log.emitter, log.topic0 or ANONYMOUS)
        raw.append(((emit_time, 1, log.log_index), src, dst, EMIT))
    n = len(interner.vertices)
    if n < 2:
        raise DisconnectedGraph(f"{record.tx_hash}: graph has {n} vertex(es), need >= 2")
    raw.sort(key=lambda item: item[0])
    edges = []
    merged = {}
    for order, (_, src, dst, kind) in enumerate(raw):
        key = (src, dst, kind)
        existing = merged.get(key)
        if existing is not None:
            existing.multiplicity += 1
        else:
            edge = XtegEdge(src=src, dst=dst, kind=kind, order=order)
            merged[key] = edge
            edges.append(edge)
    return XTEG(tx_hash=record.tx_hash, vertices=interner.vertices, edges=edges)


# A few addresses and selectors, so that calls repeat a vertex (parallel
# edges), call their own function (self-loops) and call back to the sender.
_POOL = [_addr(i) for i in range(1, 5)]


@st.composite
def _pooled_docs(draw):
    sender = draw(st.sampled_from(_POOL))
    nodes = [{"type": "CALL", "from": sender, "to": draw(st.sampled_from(_POOL)),
              "input": draw(st.sampled_from(["0x", "0xaaaaaaaa", "0xbbbbbbbb"])),
              "calls": []}]
    hub_fanout = draw(st.integers(0, 40))  # the root takes this many extra children
    for i in range(draw(st.integers(0, 30)) + hub_fanout):
        parent = nodes[0] if i < hub_fanout else nodes[draw(st.integers(0, len(nodes) - 1))]
        child = {"type": draw(st.sampled_from(["CALL", "STATICCALL", "DELEGATECALL",
                                               "CREATE", "SELFDESTRUCT"])),
                 "from": parent["to"] or _addr(0),
                 "to": draw(st.sampled_from(_POOL + [None])),
                 "input": draw(st.sampled_from(["0x", "0xaaaaaaaa", "0xbbbbbbbb"])),
                 "calls": []}
        parent["calls"].append(child)
        nodes.append(child)
    n_logs = draw(st.integers(0, 25))
    indices = draw(st.permutations(range(n_logs)))
    logs = [{"address": draw(st.sampled_from(_POOL + [_addr(9)])),
             "topics": draw(st.sampled_from([[], [_topic(1)], [_topic(2), _topic(3)]])),
             "data": "0x", "logIndex": index} for index in indices]
    return {"trace": nodes[0], "logs": logs}


@settings(max_examples=300, deadline=None)
@given(doc=_pooled_docs())
def test_build_equals_the_plain_build(doc):
    record = record_from_document(doc)
    try:
        expected = plain_build_xteg(record)
    except DisconnectedGraph as exc:
        with pytest.raises(DisconnectedGraph, match=f"^{re.escape(str(exc))}$"):
            build_xteg(record)
        return
    assert build_xteg(record) == expected

